"""Basis view of GF(2^m).

Elements are stored as plain integers whose binary digits are the
coefficients of the m-tuple representation: bit i of an element holds the
coefficient of alpha^i.  With that layout, addition is a single XOR and
alpha^i for 0 <= i < m is the one-hot integer ``1 << i``.

Orthogonal element-pair codes never leave the GF(2)-span of the basis
alpha^0 .. alpha^(m-1), so no multiplication (and hence no reduction
polynomial) is needed; the view works for m in the hundreds.
"""

from __future__ import annotations


class BasisGF2m:
    """GF(2^m) restricted to XOR addition, the basis and the tuple view."""

    def __init__(self, m: int) -> None:
        if m < 2:
            raise ValueError(f"m={m} out of range; need m >= 2")
        self.m = m
        self.order = 1 << m

    def add(self, a: int, b: int) -> int:
        """Field addition: componentwise GF(2) sum, i.e. XOR."""
        return a ^ b

    def power_of_alpha(self, i: int) -> int:
        """Basis element alpha^i, restricted to 0 <= i < m.

        Higher powers would require the reduction polynomial, which this
        representation deliberately does not carry.
        """
        if not 0 <= i < self.m:
            raise ValueError(f"exponent {i} out of basis range [0, {self.m - 1}]")
        return 1 << i

    def to_tuple(self, e: int) -> tuple[int, ...]:
        """m-tuple (a_0, ..., a_{m-1}) of an element, a_i = coeff of alpha^i."""
        if not 0 <= e < self.order:
            raise ValueError(f"element {e} outside field of order 2^{self.m}")
        return tuple((e >> i) & 1 for i in range(self.m))

    def from_tuple(self, bits) -> int:
        """Inverse of :meth:`to_tuple`."""
        if len(bits) != self.m:
            raise ValueError(f"expected {self.m}-tuple, got length {len(bits)}")
        return sum((int(b) & 1) << i for i, b in enumerate(bits))

    def __repr__(self) -> str:
        return f"BasisGF2m(m={self.m})"
