"""Finite-field multiple-access transmitter/receiver chains over a GMAC.

Three modes share one (n, m*k) systematic binary code; the transmitter
computes the channel-side sum of all users' signals for a batch of
frames at once:

* SF (sparse form): every user embeds its k bits into its own plane of
  the GF(2^m) tuple stream, encodes the resulting sparse m*k-bit message
  over the full blocklength, and transmits all n antipodal symbols.
* DF (diagonal form): the information array is rearranged so user j owns
  the contiguous information slot j; only the slot and the shared parity
  segment are transmitted, everything else stays silent (amplitude 0).
* PA (polarization adjusted): DF with the power of the silent
  coordinates reallocated to the information slot, scaling the
  information and parity amplitudes by sqrt(mu1) and sqrt(mu2) under a
  total-power constraint.

The symbol power is 1.  The modes differ only in their layout, which
``SystemConfig`` works out once:

* ``user_pos``: the (J, k) codeword positions of each user's bits, k*m + j
  in SF and j*k + k in DF/PA;
* ``n_info``: the leading message coordinates that are sent, m*k in SF
  and J*k in DF/PA; the message coordinates after them are silent;
* ``shift``: J-1 in SF and 0 in DF/PA; the other users' zero elements
  move every sent message coordinate down by it;
* ``a_info``, ``a_par``: the amplitudes of sent message and parity
  coordinates, sqrt(mu1) and sqrt(mu2) in PA and 1 otherwise.

The receiver converts the superposed channel output into per-coordinate
LLRs log P(0)/P(1) of the finite-field sum-pattern codeword (see
``_bit_priors``), hands them to one belief-propagation decode, and reads
each user's bits back at ``user_pos``; a user decoding to all zeros is
flagged inactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linear_code import LinearCode, bp_decode_batch

MODES = ("SF", "DF", "PA")


@dataclass
class SystemConfig:
    """Scenario parameters binding users and a mode to a code, plus the
    mode's layout (the init=False fields; see the module docstring)."""

    n: int
    k: int
    m: int
    j_users: int
    mode: str
    code: LinearCode
    mu_pas: float = 1.0
    n0: float = 1.0
    max_iter: int = 50
    user_pos: np.ndarray = field(init=False, repr=False, compare=False)
    n_info: int = field(init=False, repr=False, compare=False)
    shift: float = field(init=False, repr=False, compare=False)
    a_info: float = field(init=False, repr=False, compare=False)
    a_par: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.m * self.k != self.code.k:
            raise ValueError(
                f"code message length {self.code.k} != m*k = {self.m * self.k}"
            )
        if self.n != self.code.n:
            raise ValueError(f"blocklength {self.n} != code length {self.code.n}")
        if not 1 <= self.j_users <= self.m:
            raise ValueError(f"j_users={self.j_users} out of range [1, m={self.m}]")
        if self.n0 <= 0:
            raise ValueError("n0 must be positive")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        j = np.arange(self.j_users)[:, None]
        k = np.arange(self.k)[None, :]
        if self.mode == "SF":
            self.user_pos = k * self.m + j
            self.n_info = self.m * self.k
            self.shift = float(self.j_users - 1)
        else:
            self.user_pos = j * self.k + k
            self.n_info = self.j_users * self.k
            self.shift = 0.0
        mu1, mu2 = pa_power_allocation(self) if self.mode == "PA" else (1.0, 1.0)
        self.a_info, self.a_par = math.sqrt(mu1), math.sqrt(mu2)


def make_system(
    n: int,
    k: int,
    m: int,
    j_users: int,
    mode: str,
    code: LinearCode | None = None,
    mu_pas: float = 1.0,
    n0: float = 1.0,
    seed: int = 0,
    col_weight: int = 3,
    max_iter: int = 50,
) -> SystemConfig:
    """Assemble a SystemConfig, generating the code if none is given."""
    if code is None:
        code = LinearCode.generate(n, m * k, col_weight=col_weight, seed=seed)
    return SystemConfig(
        n=n, k=k, m=m, j_users=j_users, mode=mode, code=code,
        mu_pas=mu_pas, n0=n0, max_iter=max_iter,
    )


def pa_power_allocation(cfg: SystemConfig) -> tuple[float, float]:
    """Power scales (mu1, mu2) for information and parity symbols.

    Solves the constant-total-power condition
    ``n = k*mu1 + (n - m*k)*mu2`` with ``mu1/mu2 = mu_pas``.
    """
    if cfg.mode != "PA":
        raise ValueError(f"power allocation applies to PA mode, got {cfg.mode}")
    if not 1 <= cfg.mu_pas <= cfg.m:
        raise ValueError(
            f"power scaling factor {cfg.mu_pas} violates 1 <= mu_pas <= m={cfg.m}"
        )
    mu2 = cfg.n / (cfg.k * cfg.mu_pas + cfg.n - cfg.m * cfg.k)
    return cfg.mu_pas * mu2, mu2


# ---------------------------------------------------------------------------
# Transmitter
# ---------------------------------------------------------------------------

# Element budget of the per-batch temporaries (transmit's parity counts, the
# detector's levels x samples block), so memory stays flat in J.  Not smaller:
# at 1 << 18 no freed block raised glibc's dynamic mmap threshold past BP's
# 1.4 MB buffers, so those were mmapped and page-faulted on every call (desk
# SF batches 23 -> 28 ms).  At 1 << 21 every desk block fits in one chunk.
_CHUNK = 1 << 21


def transmit_cfsp_batch(bits, cfg: SystemConfig) -> np.ndarray:
    """Channel-side sum of all users' signals for a (batch, J, k) bit block.

    Equal to the frame-by-frame sum of the per-user signals described in
    the module docstring (the test suite keeps those per-user transmitters
    as its reference), but computed directly from bit counts so large
    batches stay cheap.  Returns the noiseless (batch, n) sum sequence.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 3 or bits.shape[1:] != (cfg.j_users, cfg.k):
        raise ValueError(
            f"bits must be (batch, {cfg.j_users}, {cfg.k}), got {bits.shape}"
        )
    B = bits.shape[0]
    r = np.zeros((B, cfg.n), dtype=np.float64)
    r[:, cfg.user_pos.reshape(-1)] = bits.reshape(B, -1)
    ni = cfg.n_info
    r[:, :ni] = cfg.a_info * (2.0 * r[:, :ni] - 1.0) - cfg.shift
    parity = _parity_ones(bits, cfg.code.gen.parity, cfg.user_pos)
    r[:, cfg.m * cfg.k:] = cfg.a_par * (2.0 * parity - float(cfg.j_users))
    return r


def _parity_ones(bits: np.ndarray, P: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(batch, n - mk) count of users whose own parity bit is 1.

    ``P[rows[j]]`` are user j's (k, n - mk) rows of the parity part.  The
    per-user products are integer counts <= k, exact in float32, so one
    batched float matmul over users replaces an integer contraction; the
    counts then fit the narrowest unsigned type that holds k.  Users are
    taken in chunks, so each float32 block holds at most _CHUNK elements
    (or one user's block, if that is larger) whatever J is.
    """
    B, J, k = bits.shape
    width = P.shape[1]
    per_chunk = max(1, _CHUNK // (max(B, k) * width))
    total = np.zeros((B, width), dtype=np.int64)
    for j0 in range(0, J, per_chunk):
        users = slice(j0, j0 + per_chunk)
        # One expression, so no chunk's counts outlive it into the next.
        total += (np.matmul(bits[:, users].transpose(1, 0, 2).astype(np.float32),
                            P[rows[users]].astype(np.float32))
                  .astype(np.min_scalar_type(k)) & 1).sum(axis=0, dtype=np.int64)
    return total


# ---------------------------------------------------------------------------
# Posterior detection
# ---------------------------------------------------------------------------

# 2q/(1 - q) < 1e-16 exactly when q < exp(-_TAIL); see cfsp_posterior.
_TAIL = math.log(2e16 + 1.0)


@lru_cache(maxsize=None)
def _log_comb(j_users: int) -> np.ndarray:
    """log C(J, i) for i = 0..J."""
    return np.array([math.log(math.comb(j_users, i)) for i in range(j_users + 1)])


def cfsp_posterior(y, j_users: int, amplitude: float, n0: float):
    """LLR log P(even)/P(odd) of the superposed sum's parity.

    The channel sum of J independent equiprobable antipodal symbols takes
    value a*(2i - J) with binomial weight C(J, i)/2^J, and the
    finite-field sum is i mod 2.  Given an observation y with noise
    variance n0/2, level i has log-likelihood

        ll_i = log C(J, i) - (y - a*(2i - J))**2 / n0,

    and the LLR is the log-sum-exp of the even levels minus that of the
    odd ones.  ll_i is concave in i: its first difference

        d_i = log((J - i)/(i + 1)) + (4a/n0) * (y - a*(2i + 1 - J))

    falls by at least kappa = 8a^2/n0 per step.  Only the levels within
    W of the argmax i* (the number of i < J with d_i > 0, found by
    bisection) are summed, with W the least integer such that
    (2W - 1) * kappa > _TAIL = log(2e16 + 1).  Outside the window each
    term is at most q = exp(-(2W - 1) kappa) times the term two levels
    nearer i*, and the factor compounds, so on each side the omitted
    terms of a parity class sum to at most q/(1 - q) times that class's
    last kept term.  Hence the omitted mass of each class, relative to
    the class's in-window sum, is at most 2q/(1 - q) < 1e-16.  W is
    clipped to J, so at low SNR the window is the whole mixture.

    Accepts scalar or array y; returns a float or an array of y's shape.
    """
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if n0 <= 0:
        raise ValueError(f"n0 must be positive, got {n0}")
    if j_users < 1:
        raise ValueError(f"j_users must be >= 1, got {j_users}")
    J, a = int(j_users), float(amplitude)
    y_arr = np.asarray(y, dtype=np.float64)
    flat = y_arr.reshape(-1)
    log_comb = _log_comb(J)
    scale = 4.0 * a / n0
    kappa = 2.0 * a * scale
    half = min(J, math.floor((_TAIL / kappa + 1.0) / 2.0) + 1)
    width = min(2 * half + 1, J + 1)

    # Row r of the window holds level start + t[r], even t first, so the
    # first n_even rows are one parity class and the rest the other.
    # With u = y - a*(2*start - J) that level's log-likelihood is
    # log C - u^2/n0 + scale*u*t - (4a^2/n0)*t^2; the u^2/n0 term is the
    # same for every level of a sample, cancels in the LLR and is dropped.
    t = np.concatenate([np.arange(0, width, 2), np.arange(1, width, 2)])
    n_even = (width + 1) // 2
    table = (log_comb[t[:, None] + np.arange(J + 2 - width)]
             - (a * scale) * t[:, None].astype(np.float64) ** 2)
    if width <= J:
        # Bisection for i* on d_i = step_i + scale*y; settled entries stay
        # put because d_J = -inf.
        step = (np.append(np.diff(log_comb), -np.inf)
                - (a * scale) * (2.0 * np.arange(J + 1) + 1.0 - J))
    # Samples are taken in near-equal chunks of at most _CHUNK // width, and
    # of at least two: numpy sums a one-sample (width, 1) block pairwise
    # instead of row by row, which moves the LLR's last bit.
    n_chunks = max(1, -(-flat.size // max(4, _CHUNK // width)))
    llr = np.empty(flat.shape)
    for part, out in zip(np.array_split(flat, n_chunks), np.array_split(llr, n_chunks)):
        if width <= J:
            scaled_y = scale * part
            lo = np.zeros(part.shape, dtype=np.intp)
            hi = np.full(part.shape, J, dtype=np.intp)
            for _ in range(J.bit_length()):
                mid = (lo + hi) >> 1
                up = step[mid] + scaled_y > 0
                lo = np.where(up, mid + 1, lo)
                hi = np.where(up, hi, mid)
            start = np.clip(lo - half, 0, J + 1 - width)
            # np.take keeps the gathered window C-ordered for the add below.
            base = np.take(table, start, axis=1)
        else:
            start, base = 0, table    # the whole mixture, one column of table

        ll = np.multiply.outer(t.astype(np.float64), scale * (part - a * (2 * start - J)))
        ll += base
        # Each class is shifted by its own maximum, so neither sum underflows
        # and the LLR stays finite however far y lies from the centres.
        top_even = ll[:n_even].max(axis=0)
        top_odd = ll[n_even:].max(axis=0)
        ll[:n_even] -= top_even
        ll[n_even:] -= top_odd
        np.exp(ll, out=ll)
        part_llr = (top_even - top_odd
                    + np.log(ll[:n_even].sum(axis=0)) - np.log(ll[n_even:].sum(axis=0)))
        out[:] = np.where(start & 1, -part_llr, part_llr)
        del ll, base    # free this chunk's blocks before the next is built
    if y_arr.ndim == 0:
        return float(llr[0])
    return llr.reshape(y_arr.shape)


def _bit_priors(y: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Per-coordinate LLR log P(0)/P(1) of the sum-pattern codeword, (batch, n).

    A sent message coordinate carries one unknown bit on top of the other
    users' known zero elements, so ``y + shift`` is one BPSK symbol of
    amplitude ``a_info`` (SF planes without a user get the same model; the
    receiver decides activity from the decoded message).  Silent message
    coordinates are known to decode to zero.  Parity coordinates carry the
    sum of J independent antipodal symbols and get the (J+1)-level
    binomial mixture.
    """
    ni, mk = cfg.n_info, cfg.m * cfg.k
    llr = np.full_like(y, np.inf)
    llr[:, :ni] = cfsp_posterior(y[:, :ni] + cfg.shift, 1, cfg.a_info, cfg.n0)
    llr[:, mk:] = cfsp_posterior(y[:, mk:], cfg.j_users, cfg.a_par, cfg.n0)
    return llr


def receive_batch(y, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (batch, n) block of channel outputs.

    Returns (rx_bits, active_flags, converged) with shapes
    (batch, J, k), (batch, J) and (batch,).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != cfg.n:
        raise ValueError(f"y must be (batch, {cfg.n}), got {y.shape}")
    llr = _bit_priors(y, cfg)
    v_hat, converged = bp_decode_batch(llr, cfg.code.pcm, cfg.max_iter)
    rx_bits = v_hat[:, cfg.user_pos]
    return rx_bits, rx_bits.any(axis=2), converged
