"""Element-pair codes over GF(2^m).

Field elements are plain integers whose binary digits are the
coefficients of the m-tuple representation: bit i of an element holds the
coefficient of alpha^i.  Addition is therefore a single XOR and alpha^i
for 0 <= i < m is the one-hot integer ``1 << i``.  Orthogonal pairs never
leave the GF(2)-span of that basis, so no multiplication (and hence no
reduction polynomial) is needed, and m can be in the hundreds.

An element pair (EP) maps one user's bit to one of two distinct field
elements.  A set of J pairs is uniquely decodable when the map from the
J-tuple of chosen elements to their finite-field sum (the FFSP) is
injective; the orthogonal construction assigns pair j = (0, alpha^(j-1)),
whose nonzero elements have disjoint one-hot supports, so the sum simply
juxtaposes the users' bits inside one m-tuple.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def orthogonal_ep_set(m: int, j_users: int) -> tuple[ElementPair, ...]:
    """Orthogonal pairs over GF(2^m): user j gets (0, alpha^(j-1)), 1 <= j <= J <= m.

    Pair j-1 belongs to user j.  Distinct pairs have disjoint one-hot
    supports, which makes the sum pattern trivially unique.
    """
    if not 1 <= j_users <= m:
        raise ValueError(f"j_users={j_users} out of range [1, m={m}]")
    return tuple(ElementPair(0, 1 << j) for j in range(j_users))


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


def check_uspm(pairs: Sequence[ElementPair]) -> bool:
    """Exhaustive unique-sum-pattern check over every given pair.

    Enumerates all 2^J element tuples from the Cartesian product of the
    pairs and reports whether their sums are pairwise distinct (hash set
    with early exit on the first collision).  To check the first J users
    only, pass ``pairs[:J]``.
    """
    if not pairs:
        raise ValueError("need at least one element pair")
    if len(pairs) > MAX_USPM_USERS:
        raise ValueError(
            f"exhaustive check limited to {MAX_USPM_USERS} users, got {len(pairs)}"
        )
    sums = [0]
    for pair in pairs:
        sums = [s ^ e for s in sums for e in (pair.e0, pair.e1)]
        # A collision among partial sums survives any common suffix, so
        # stage-wise checking is exact and allows an early exit.
        if len(set(sums)) != len(sums):
            return False
    return True
