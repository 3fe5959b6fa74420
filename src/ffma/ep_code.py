"""Element-pair codes over GF(2^m).

An element pair (EP) maps one user's bit to one of two distinct field
elements.  A set of J pairs is uniquely decodable when the map from the
J-tuple of chosen elements to their finite-field sum (the FFSP) is
injective; the orthogonal construction assigns pair j = (0, alpha^(j-1)),
whose nonzero elements have disjoint one-hot supports, so the sum simply
juxtaposes the users' bits inside one m-tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

MAX_USPM_USERS = 20


@dataclass(frozen=True)
class ElementPair:
    """Images of bit 0 and bit 1 for one user; must differ."""

    e0: int
    e1: int

    def __post_init__(self) -> None:
        if self.e0 == self.e1:
            raise ValueError("element pair needs two distinct elements")


@dataclass(frozen=True)
class EpSet:
    """Ordered element pairs; pair j-1 belongs to user j."""

    pairs: tuple[ElementPair, ...]

    def __len__(self) -> int:
        return len(self.pairs)


def orthogonal_ep_set(field, j_users: int) -> EpSet:
    """Orthogonal pair set: user j gets (0, alpha^(j-1)), 1 <= j <= J <= m.

    Distinct pairs have disjoint one-hot supports, which makes the sum
    pattern trivially unique.
    """
    if not 1 <= j_users <= field.m:
        raise ValueError(f"j_users={j_users} out of range [1, m={field.m}]")
    pairs = tuple(ElementPair(0, field.power_of_alpha(j)) for j in range(j_users))
    return EpSet(pairs=pairs)


def f_b2q(bit: int, pair: ElementPair) -> int:
    """Binary-to-field switching function: 0 -> e0, 1 -> e1."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return pair.e1 if bit else pair.e0


def ffsp(block) -> int:
    """Finite-field sum pattern of one element per user (XOR of all)."""
    return reduce(lambda a, b: a ^ b, (int(u) for u in block), 0)


def f_q2b(w: int, user_index: int, m: int) -> int:
    """Recover user j's bit from a sum pattern: component j-1 of the m-tuple."""
    if not 1 <= user_index <= m:
        raise ValueError(f"user_index={user_index} out of range [1, {m}]")
    return (w >> (user_index - 1)) & 1


def check_uspm(eps: EpSet, j_users: int | None = None) -> bool:
    """Exhaustive unique-sum-pattern check over the first J pairs.

    Enumerates all 2^J element tuples from the Cartesian product of the
    pairs and reports whether their sums are pairwise distinct (hash set
    with early exit on the first collision).
    """
    if j_users is None:
        j_users = len(eps.pairs)
    if not 1 <= j_users <= len(eps.pairs):
        raise ValueError(f"j_users={j_users} out of range [1, {len(eps.pairs)}]")
    if j_users > MAX_USPM_USERS:
        raise ValueError(
            f"exhaustive check limited to {MAX_USPM_USERS} users, got {j_users}"
        )
    sums = [0]
    for pair in eps.pairs[:j_users]:
        sums = [s ^ e for s in sums for e in (pair.e0, pair.e1)]
        # A collision among partial sums survives any common suffix, so
        # stage-wise checking is exact and allows an early exit.
        if len(set(sums)) != len(sums):
            return False
    return True
