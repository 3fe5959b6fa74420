"""Bitwise-MAP reference receiver for tiny FFMA configurations.

Enumerates all 2^(J*k) user-bit patterns, builds each pattern's noiseless
channel sum from the per-user reference transmitters (``per_user_tx``),
and decides each bit by its exact posterior under Gaussian noise of
variance n0/2.  No receiver makes fewer bit errors on average, so one
that clearly does is reading something it should not, such as the
transmitted bits.
"""

import itertools

import numpy as np

from per_user_tx import transmit


def codebook(cfg) -> tuple[np.ndarray, np.ndarray]:
    """Every (J, k) bit pattern, (2^(J*k), J, k), and its noiseless
    channel sum, (2^(J*k), n): the per-user signals added up."""
    patterns = np.array(list(itertools.product((0, 1), repeat=cfg.j_users * cfg.k)),
                        dtype=np.uint8).reshape(-1, cfg.j_users, cfg.k)
    return patterns, np.stack([transmit(bits, cfg).sum(axis=0) for bits in patterns])


def bitwise_map(y, patterns: np.ndarray, sums: np.ndarray, n0: float) -> np.ndarray:
    """(batch, J, k) bitwise-MAP decisions for (batch, n) channel outputs."""
    y = np.asarray(y, dtype=np.float64)
    # -|y - c|^2 / n0 up to a per-frame constant, for every codebook entry c.
    ll = (2.0 * y @ sums.T - (sums ** 2).sum(axis=1)) / n0
    weight = np.exp(ll - ll.max(axis=1, keepdims=True))
    p1 = (weight @ patterns.reshape(len(patterns), -1)) / weight.sum(axis=1, keepdims=True)
    return (p1 > 0.5).astype(np.uint8).reshape(len(y), *patterns.shape[1:])
