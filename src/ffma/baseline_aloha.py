"""Slotted-ALOHA baseline: dedicated time slots plus repetition coding.

J users split the n channel uses into J collision-free slots of n/J
symbols; each user's k bits are repeated n/(J*k) times, BPSK-modulated
and placed in its own slot.  The receiver coherently combines the copies
(sum of the slot samples per bit) and thresholds at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AlohaConfig:
    """Slot layout; requires J | n and J*k | n."""

    n: int
    k: int
    j_users: int

    def __post_init__(self) -> None:
        if self.j_users < 1 or self.k < 1 or self.n < 1:
            raise ValueError("n, k and j_users must be positive")
        if self.n % self.j_users:
            raise ValueError(f"user count {self.j_users} does not divide n={self.n}")
        if self.n % (self.j_users * self.k):
            raise ValueError(
                f"slot of {self.n // self.j_users} symbols cannot carry "
                f"{self.k} equally repeated bits"
            )

    @property
    def slot_len(self) -> int:
        return self.n // self.j_users

    @property
    def repeat(self) -> int:
        return self.n // (self.j_users * self.k)


def aloha_receive_batch(y, cfg: AlohaConfig) -> np.ndarray:
    """Recover all users' bits from a (batch, n) block, result (batch, J, k).

    Equal-gain combining: per bit, sum the repeat copies of the received
    samples and decide 1 on a positive sum (ties resolve to 0).  The
    noise level only scales the per-symbol LLRs by a common positive
    factor, so the decision does not need it.

    Below 8 copies they are added as whole (batch, J, k) arrays from
    copy 0 upward: a numpy ``sum`` over a repeat axis only 2 or 4 long
    costs an inner-loop call per bit, and adds in the same order, so the
    sums are the same bits.  From 8 copies on numpy's ``sum`` is kept: it
    sums pairwise, and a loop over 20 or more copies is slower than it.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != cfg.n:
        raise ValueError(f"y must be (batch, {cfg.n}), got {y.shape}")
    copies = y.reshape(y.shape[0], cfg.j_users, cfg.k, cfg.repeat)
    if cfg.repeat >= 8:
        sums = copies.sum(axis=3)
    else:
        sums = copies[..., 0].copy()
        for c in range(1, cfg.repeat):
            sums += copies[..., c]
    return (sums > 0).astype(np.uint8)


def aloha_cfsp_batch(bits, cfg: AlohaConfig) -> np.ndarray:
    """Noiseless channel sum for a (batch, J, k) bit block.

    User j is nonzero only in slot j, so the sum is just the users'
    repeated BPSK signals laid side by side.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 3 or bits.shape[1:] != (cfg.j_users, cfg.k):
        raise ValueError(
            f"bits must be (batch, {cfg.j_users}, {cfg.k}), got {bits.shape}"
        )
    rep = np.repeat(bits.reshape(bits.shape[0], -1), cfg.repeat, axis=1)
    return 2.0 * rep - 1.0
