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
``mode_layout`` works out once for ``SystemConfig`` and the driver:

* ``user_pos``: the (J, k) codeword positions of each user's bits, k*m + j
  in SF and j*k + k in DF/PA;
* ``n_info``: the leading message coordinates that are sent, m*k in SF
  and J*k in DF/PA; the message coordinates after them are silent;
* ``shift``: J-1 in SF and 0 in DF/PA; the other users' zero elements
  move every sent message coordinate down by it;
* ``a_info``, ``a_par``: the amplitudes of sent message and parity
  coordinates, sqrt(mu1) and sqrt(mu2) in PA and 1 otherwise;
* ``energy``: each user's frame energy, n in SF/PA and n - (m-1)*k in DF.

The receiver turns the channel output into LLRs log P(0)/P(1) of the sent
coordinates of the finite-field sum-pattern codeword (``_bit_priors``),
decodes them by belief propagation on the code shortened to those
coordinates (``LinearCode.shortened(n_info)``; the whole code in SF), and
reads each user's bits back at ``user_pos``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linear_code import LinearCode, bp_decode_batch

MODES = ("SF", "DF", "PA")


ModeLayout = namedtuple("ModeLayout", "user_pos n_info shift a_info a_par energy")


def mode_layout(mode: str, n: int, k: int, m: int, j_users: int, mu_pas: float = 1.0) -> ModeLayout:
    """J users' layout in ``mode`` (SF, DF or PA) on an (n, m*k) code."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if m < 1:
        raise ValueError(f"{mode} needs an extension degree m >= 1, got m={m}")
    if not 1 <= j_users <= m:
        raise ValueError(f"j_users={j_users} out of range [1, m={m}]")
    if m * k >= n:
        raise ValueError(f"the code needs m*k < n: m*k={m * k}, n={n}")
    if mode == "SF":
        return ModeLayout(np.arange(m * k).reshape(k, m).T[:j_users], m * k,
                          float(j_users - 1), 1.0, 1.0, n)
    user_pos = np.arange(j_users * k).reshape(j_users, k)
    if mode == "DF":
        return ModeLayout(user_pos, j_users * k, 0.0, 1.0, 1.0, n - (m - 1) * k)
    if not 1 <= mu_pas <= m:
        raise ValueError(f"mu_pas={mu_pas} violates 1 <= mu_pas <= m={m}")
    # n = k*mu1 + (n - m*k)*mu2 with mu1 = mu_pas*mu2: PA keeps the frame energy n.
    mu2 = n / (k * mu_pas + n - m * k)
    return ModeLayout(user_pos, j_users * k, 0.0, math.sqrt(mu_pas * mu2), math.sqrt(mu2), n)


def detector_is_finite(n0: float, a_info: float, j_users: int) -> bool:
    """Whether the detector's arithmetic is finite at noise level n0: n0 and
    its largest log-likelihood term 8 a_info^2 (J+1)^2 / n0 lie in (0, inf)."""
    n0 = float(n0)
    return 0.0 < n0 < math.inf and 0.0 < 8.0 * a_info ** 2 * (j_users + 1) ** 2 / n0 < math.inf


@dataclass
class SystemConfig:
    """Users and a mode bound to a code, plus what follows from them (the
    init=False fields): n = code.n, m = code.k / k and the mode's
    ``layout`` (``mode_layout``)."""

    code: LinearCode
    k: int
    j_users: int
    mode: str
    mu_pas: float = 1.0
    n0: float = 1.0
    max_iter: int = 50
    n: int = field(init=False)
    m: int = field(init=False)
    layout: ModeLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1 or self.code.k % self.k:
            raise ValueError(
                f"k={self.k} must be >= 1 and divide the code message length {self.code.k}"
            )
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        self.n, self.m = self.code.n, self.code.k // self.k
        self.layout = mode_layout(self.mode, self.n, self.k, self.m, self.j_users, self.mu_pas)
        if not detector_is_finite(self.n0, self.layout.a_info, self.j_users):
            raise ValueError(f"n0={self.n0} must be positive and leave the detector's "
                             "arithmetic finite")


# ---------------------------------------------------------------------------
# Transmitter
# ---------------------------------------------------------------------------

# Element budget of transmit's float32 parity-count block, so its memory stays
# flat in J.  It has a second job in a one-worker run, where the allocator is
# left as it is: freeing a block this large (up to 8 MiB; 7.2 MB at desk J=60)
# lifts glibc's dynamic mmap and trim thresholds above BP's 1.4 MB loop
# buffers, which then stay on the heap.  At 1 << 18 no freed block did, so
# those buffers were mmapped and page-faulted on every call (desk SF batches
# 13 -> 17 ms, 0 -> ~3 100 minor faults).
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
    B, lay = bits.shape[0], cfg.layout
    r = np.zeros((B, cfg.n), dtype=np.float64)
    r[:, lay.user_pos.reshape(-1)] = bits.reshape(B, -1)
    ni = lay.n_info
    r[:, :ni] = lay.a_info * (2.0 * r[:, :ni] - 1.0) - lay.shift
    parity = _parity_ones(bits, cfg.code.parity, lay.user_pos)
    r[:, cfg.m * cfg.k:] = lay.a_par * (2.0 * parity - float(cfg.j_users))
    return r


def _parity_ones(bits: np.ndarray, P: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(batch, n - mk) count of users whose own parity bit is 1.

    ``P[rows[j]]`` are user j's (k, n - mk) rows of the parity part.  The
    per-user products are integer counts <= k, exact in float32, so one
    batched float matmul over users replaces an integer contraction; the
    counts then fit the narrowest unsigned type that holds k, and their
    parity bits are summed over users in the narrowest one that holds J.
    Users are taken in chunks, so each float32 block holds at most _CHUNK
    elements (or one user's block, if that is larger) whatever J is.
    """
    B, J, k = bits.shape
    width = P.shape[1]
    per_chunk = max(1, _CHUNK // (max(B, k) * width))
    total = np.zeros((B, width), dtype=np.min_scalar_type(J))
    for j0 in range(0, J, per_chunk):
        users = slice(j0, j0 + per_chunk)
        # One expression, so no chunk's counts outlive it into the next.
        total += (np.matmul(bits[:, users].transpose(1, 0, 2).astype(np.float32),
                            P[rows[users]].astype(np.float32))
                  .astype(np.min_scalar_type(k)) & 1).sum(axis=0, dtype=total.dtype)
    return total


# ---------------------------------------------------------------------------
# Posterior detection
# ---------------------------------------------------------------------------

# 2q/(1 - q) < 1e-16 exactly when q < exp(-_TAIL); see cfsp_posterior.
_TAIL = math.log(2e16 + 1.0)

# Element budget of the detector's float64 levels x samples block: 2 MiB, one
# L2 cache, so each block is still cached when its exp and class sums read it
# back.  Smaller than _CHUNK, which the allocator needs, not the detector.
_DETECTOR_CHUNK = 1 << 18


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
    W of the argmax i* are summed, with W the least integer such that
    (2W - 1) * kappa > _TAIL = log(2e16 + 1).  Outside the window each
    term is at most q = exp(-(2W - 1) kappa) times the term two levels
    nearer i*, and the factor compounds, so on each side the omitted
    terms of a parity class sum to at most q/(1 - q) times that class's
    last kept term.  Hence the omitted mass of each class, relative to
    the class's in-window sum, is at most 2q/(1 - q) < 1e-16.  W is
    clipped to J, so at low SNR the window is the whole mixture.  i*,
    the number of i < J with d_i = step_i + scale*y > 0, is one sorted
    search of scale*y in -step: in IEEE arithmetic fl(step_i + s) > 0
    exactly when s > -step_i, and -step rises by at least kappa per level.

    J = 1 (one BPSK symbol) has one level per class, so the LLR is
    0 - (scale*(y + a) - a*scale), and +-inf where that overflows.

    Accepts scalar or array y; returns a float or an array of y's shape.
    """
    if not 0 < amplitude < math.inf:
        raise ValueError(f"amplitude must be positive and finite, got {amplitude}")
    if j_users < 1:
        raise ValueError(f"j_users must be >= 1, got {j_users}")
    J, a = int(j_users), float(amplitude)
    if not detector_is_finite(n0, a, J):
        raise ValueError(f"n0 must be positive and finite, and leave 8 a^2 (J+1)^2 / n0 "
                         f"finite, got n0={n0} (a={a}, J={J})")
    y_arr = np.asarray(y, dtype=np.float64)
    scale = 4.0 * a / n0
    if J == 1:
        llr = 0.0 - (scale * (y_arr + a) - a * scale)
        return float(llr) if y_arr.ndim == 0 else llr
    # numpy sums a one-sample (width, 1) block pairwise instead of row by
    # row, which moves the LLR's last bit, so one sample is taken twice.
    flat = np.resize(y_arr, 2) if y_arr.size == 1 else y_arr.reshape(-1)
    log_comb = _log_comb(J)
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
        # -step_J = +inf, so i* <= J.
        neg_step = -(np.append(np.diff(log_comb), -np.inf)
                     - (a * scale) * (2.0 * np.arange(J + 1) + 1.0 - J))
    # Samples are taken in near-equal chunks of at most _DETECTOR_CHUNK // width,
    # and of at least two, so no chunk is summed pairwise either.  numpy adds
    # a block's rows one by one, so the LLR does not depend on the chunking.
    n_chunks = max(1, -(-flat.size // max(4, _DETECTOR_CHUNK // width)))
    llr = np.empty(flat.shape)
    for part, out in zip(np.array_split(flat, n_chunks), np.array_split(llr, n_chunks)):
        if width <= J:
            centre = np.searchsorted(neg_step, scale * part)
            start = np.clip(centre - half, 0, J + 1 - width)
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
    return llr[:y_arr.size].reshape(y_arr.shape)


def _bit_priors(y: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """LLRs log P(0)/P(1) of the sum-pattern codeword's sent coordinates,
    message [0, n_info) then parity [m*k, n): (batch, n_info + n - m*k).

    A sent message coordinate carries one unknown bit on top of the other
    users' known zero elements, so ``y + shift`` is one BPSK symbol of
    amplitude ``a_info`` (SF planes without a user get the same model).
    Parity coordinates carry the sum of J independent antipodal symbols
    and get the (J+1)-level binomial mixture.
    """
    mk, lay = cfg.m * cfg.k, cfg.layout
    return np.concatenate([cfsp_posterior(y[:, :lay.n_info] + lay.shift, 1, lay.a_info, cfg.n0),
                           cfsp_posterior(y[:, mk:], cfg.j_users, lay.a_par, cfg.n0)], axis=1)


def receive_batch(y, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (batch, n) block of channel outputs into (rx_bits, converged),
    of shapes (batch, J, k) and (batch,)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != cfg.n:
        raise ValueError(f"y must be (batch, {cfg.n}), got {y.shape}")
    llr = _bit_priors(y, cfg)
    v_hat, converged = bp_decode_batch(llr, cfg.code.shortened(cfg.layout.n_info), cfg.max_iter)
    return v_hat[:, cfg.layout.user_pos], converged
