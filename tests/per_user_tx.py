"""Per-user reference transmitters.

The simulator only ever computes the channel-side sum of all users'
signals for a batch of frames (``transmit_cfsp_batch``,
``aloha_cfsp_batch``).  These functions build each user's signal on its
own, straight from the mode definitions, so the tests can compare the
batched sum against the frame-by-frame sum of independent transmitters.
"""

import math

import numpy as np

from ffma.ffma_system import SystemConfig
from ffma.linear_code import encode


def _check_bits(bits, cfg) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (cfg.j_users, cfg.k):
        raise ValueError(f"bits must be ({cfg.j_users}, {cfg.k}), got {bits.shape}")
    return bits


def sf_transmit(bits, cfg: SystemConfig) -> np.ndarray:
    """Sparse-form transmitter: (J, n) antipodal signal matrix.

    User j's element sequence occupies tuple position j-1 of each of the
    k message blocks; the flattened m*k-bit message is encoded by the
    shared systematic code and mapped to +-1.
    """
    if cfg.mode != "SF":
        raise ValueError(f"sf_transmit needs mode SF, got {cfg.mode}")
    bits = _check_bits(bits, cfg)
    msgs = np.zeros((cfg.j_users, cfg.m * cfg.k), dtype=np.uint8)
    block = np.arange(cfg.k) * cfg.m
    for j in range(cfg.j_users):
        msgs[j, block + j] = bits[j]
    codewords = encode(msgs, cfg.code)
    return 2.0 * codewords - 1.0


def user_parity(user_bits, user_rows) -> np.ndarray:
    """One user's own parity bits: its k bits times its (k, n - mk) rows of
    the parity part, in int64, mod 2."""
    return (np.asarray(user_bits).astype(np.int64) @ user_rows) & 1


def _diag_signals(bits: np.ndarray, cfg: SystemConfig, a_info: float, a_parity: float) -> np.ndarray:
    """User j sends its own slot j and the parity of its diagonal-form message."""
    x = np.zeros((cfg.j_users, cfg.n), dtype=np.float64)
    mk = cfg.m * cfg.k
    P = cfg.code.parity
    for j in range(cfg.j_users):
        sl = slice(j * cfg.k, (j + 1) * cfg.k)
        parity = user_parity(bits[j], P[sl])
        x[j, sl] = a_info * (2.0 * bits[j] - 1.0)
        x[j, mk:] = a_parity * (2.0 * parity - 1.0)
    return x


def df_transmit(bits, cfg: SystemConfig) -> np.ndarray:
    """Diagonal-form transmitter: energy only on own slot + parity segment.

    Each row of the result is a full-length signal whose silent
    coordinates carry amplitude 0, i.e. the position-mapped shortened
    codeword (b_j, parity_j) of length n - (m-1)k.
    """
    if cfg.mode not in ("DF", "PA"):
        raise ValueError(f"df_transmit needs mode DF or PA, got {cfg.mode}")
    bits = _check_bits(bits, cfg)
    return _diag_signals(bits, cfg, 1.0, 1.0)


def pa_transmit(bits, cfg: SystemConfig) -> np.ndarray:
    """Polarization-adjusted transmitter: DF layout, reallocated power."""
    if cfg.mode != "PA":
        raise ValueError(f"pa_transmit needs mode PA, got {cfg.mode}")
    bits = _check_bits(bits, cfg)
    # Constant total power n = k*mu1 + (n - m*k)*mu2 with mu1 = mu_pas*mu2.
    mu2 = cfg.n / (cfg.k * cfg.mu_pas + cfg.n - cfg.m * cfg.k)
    mu1 = cfg.mu_pas * mu2
    return _diag_signals(bits, cfg, math.sqrt(mu1), math.sqrt(mu2))


def transmit(bits, cfg: SystemConfig) -> np.ndarray:
    """Mode dispatch to the matching transmitter."""
    if cfg.mode == "SF":
        return sf_transmit(bits, cfg)
    if cfg.mode == "DF":
        return df_transmit(bits, cfg)
    return pa_transmit(bits, cfg)


def aloha_transmit(bits, cfg) -> np.ndarray:
    """Per-user ALOHA signals, (J, n); user j is nonzero only in slot j."""
    bits = _check_bits(bits, cfg)
    x = np.zeros((cfg.j_users, cfg.n), dtype=np.float64)
    for j in range(cfg.j_users):
        sl = slice(j * cfg.slot_len, (j + 1) * cfg.slot_len)
        x[j, sl] = 2.0 * np.repeat(bits[j], cfg.repeat) - 1.0
    return x
