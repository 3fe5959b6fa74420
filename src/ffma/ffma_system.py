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

The receiver converts the superposed channel output into per-coordinate
posteriors of the finite-field sum-pattern codeword, runs one
belief-propagation decode, and splits the recovered message back into
per-user bits; a user decoding to all zeros is flagged inactive.  A
message coordinate carries one plane, so its posterior is that of a
single user's bit (the other users send known zero elements); a parity
coordinate mixes all J users' bits and gets the binomial Gaussian
mixture of ``cfsp_posterior``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .linear_code import LinearCode, bp_decode_batch

MODES = ("SF", "DF", "PA")


@dataclass
class SystemConfig:
    """Scenario parameters binding users and a mode to a code."""

    n: int
    k: int
    m: int
    j_users: int
    mode: str
    code: LinearCode
    mu_pas: float = 1.0
    p_avg: float = 1.0
    n0: float = 1.0
    max_iter: int = 50

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
        if self.mode == "PA" and not 1 <= self.mu_pas <= self.m:
            raise ValueError(
                f"power scaling factor {self.mu_pas} violates 1 <= mu_pas <= m={self.m}"
            )
        if self.p_avg <= 0:
            raise ValueError("p_avg must be positive")
        if self.n0 <= 0:
            raise ValueError("n0 must be positive")


def make_system(
    n: int,
    k: int,
    m: int,
    j_users: int,
    mode: str,
    code: LinearCode | None = None,
    mu_pas: float = 1.0,
    p_avg: float = 1.0,
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
        mu_pas=mu_pas, p_avg=p_avg, n0=n0, max_iter=max_iter,
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


def _power_pair(cfg: SystemConfig) -> tuple[float, float]:
    if cfg.mode == "PA":
        return pa_power_allocation(cfg)
    return 1.0, 1.0


# ---------------------------------------------------------------------------
# Transmitter
# ---------------------------------------------------------------------------

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
    mk = cfg.m * cfg.k
    P = cfg.code.gen.parity
    a = math.sqrt(cfg.p_avg)
    J = cfg.j_users

    if cfg.mode == "SF":
        # Message rows of user j inside P: tuple position j of block k.
        rows = (np.arange(cfg.k)[None, :] * cfg.m + np.arange(J)[:, None])
        sub = P[rows].astype(np.int64)                      # (J, k, n - mk)
        par = np.einsum("bjk,jkp->bjp", bits.astype(np.int64), sub) & 1
        ones = np.zeros((B, cfg.n), dtype=np.int64)
        ones[:, rows.reshape(-1)] = bits.reshape(B, -1)
        ones[:, mk:] = par.sum(axis=1)
        return a * (2.0 * ones - float(J))

    mu1, mu2 = _power_pair(cfg)
    a_info = math.sqrt(mu1) * a
    a_par = math.sqrt(mu2) * a
    rows = (np.arange(J)[:, None] * cfg.k + np.arange(cfg.k)[None, :])
    sub = P[rows].astype(np.int64)
    par = np.einsum("bjk,jkp->bjp", bits.astype(np.int64), sub) & 1
    r = np.zeros((B, cfg.n), dtype=np.float64)
    r[:, : J * cfg.k] = a_info * (2.0 * bits.reshape(B, -1) - 1.0)
    r[:, mk:] = a_par * (2.0 * par.sum(axis=1) - float(J))
    return r


# ---------------------------------------------------------------------------
# Posterior detection
# ---------------------------------------------------------------------------

def cfsp_posterior(y, j_users: int, amplitude: float, n0: float):
    """Posterior bit probabilities of the superposed sum's parity.

    The channel sum of J independent equiprobable antipodal symbols takes
    value amplitude*(2*iota - J) with binomial weight C(J, iota)/2^J, and
    the finite-field sum is iota mod 2.  Given an observation y with
    noise variance n0/2 this evaluates the two-class Gaussian-mixture
    posterior (p0, p1), computed in the log domain.

    Accepts scalar or array y; returns matching scalars or arrays.
    """
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if n0 <= 0:
        raise ValueError(f"n0 must be positive, got {n0}")
    if j_users < 1:
        raise ValueError(f"j_users must be >= 1, got {j_users}")
    y_arr = np.asarray(y, dtype=np.float64)
    iota = np.arange(j_users + 1)
    logw = np.array(
        [math.log(math.comb(j_users, int(i))) for i in iota]
    ) - j_users * math.log(2.0)
    centers = amplitude * (2.0 * iota - j_users)
    pad = (-1,) + (1,) * y_arr.ndim
    ll = logw.reshape(pad) - (y_arr[None, ...] - centers.reshape(pad)) ** 2 / n0
    log_all = logsumexp(ll, axis=0)
    p0 = np.exp(logsumexp(ll[0::2], axis=0) - log_all)
    p1 = np.exp(logsumexp(ll[1::2], axis=0) - log_all)
    if np.isscalar(y) or (isinstance(y, np.ndarray) and y.ndim == 0):
        return float(p0), float(p1)
    return p0, p1


def _bit_priors(y: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Per-coordinate P(bit = 1) of the sum-pattern codeword, (batch, n).

    Parity coordinates carry the sum of J independent antipodal symbols
    and get the (J+1)-level binomial mixture.  In SF mode each message
    coordinate belongs to one plane: only its owner's bit varies and the
    other J-1 users send their zero element -a, so the sample is one
    BPSK symbol shifted by -(J-1)a.  Planes without a user get the same
    model (the receiver decides activity from the decoded message).
    """
    a = math.sqrt(cfg.p_avg)
    mk = cfg.m * cfg.k
    p1 = np.empty_like(y)
    if cfg.mode == "SF":
        shift = (cfg.j_users - 1) * a
        p1[:, :mk] = cfsp_posterior(y[:, :mk] + shift, 1, a, cfg.n0)[1]
        p1[:, mk:] = cfsp_posterior(y[:, mk:], cfg.j_users, a, cfg.n0)[1]
        return p1
    mu1, mu2 = _power_pair(cfg)
    jk = cfg.j_users * cfg.k
    # Information slots: one active user per coordinate; slots of the
    # users beyond J are silent and known to decode to zero.
    p1[:, :jk] = cfsp_posterior(y[:, :jk], 1, math.sqrt(mu1) * a, cfg.n0)[1]
    p1[:, jk:mk] = 0.0
    p1[:, mk:] = cfsp_posterior(y[:, mk:], cfg.j_users, math.sqrt(mu2) * a, cfg.n0)[1]
    return p1


def _user_bit_index(cfg: SystemConfig) -> np.ndarray:
    """(J, k) indices of each user's bits inside the decoded message."""
    j = np.arange(cfg.j_users)[:, None]
    k = np.arange(cfg.k)[None, :]
    if cfg.mode == "SF":
        return k * cfg.m + j
    return j * cfg.k + k


def receive_batch(y, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (batch, n) block of channel outputs.

    Returns (rx_bits, active_flags, converged) with shapes
    (batch, J, k), (batch, J) and (batch,).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != cfg.n:
        raise ValueError(f"y must be (batch, {cfg.n}), got {y.shape}")
    p1 = _bit_priors(y, cfg)
    v_hat, converged = bp_decode_batch(p1, cfg.code.pcm, cfg.max_iter)
    w_hat = v_hat[:, : cfg.m * cfg.k]
    rx_bits = w_hat[:, _user_bit_index(cfg)]
    return rx_bits, rx_bits.any(axis=2), converged
