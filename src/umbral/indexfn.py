"""Polynomials and rational functions of an integer (or rational) index.

These represent sequences like a_n = P(n)/Q(n) in closed form so they can be
evaluated at shifted and non-integer arguments, compared exactly, and
dualized by affine substitutions of the index.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .series import as_rat

# -- polynomial helpers: coefficient lists, low degree first -------------------


def poly_mul(p: Sequence, q: Sequence) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return out


def poly_add(p: Sequence, q: Sequence) -> list:
    n = max(len(p), len(q))
    return [
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ]


def poly_eval(p: Sequence, x) -> Fraction:
    x = as_rat(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


class IndexPoly:
    """Polynomial in the index with Fraction coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [as_rat(c) for c in coeffs] or [Fraction(0)]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> "IndexPoly":
        return cls([value])

    @classmethod
    def theta(cls) -> "IndexPoly":
        return cls([0, 1])

    def __call__(self, n) -> Fraction:
        return poly_eval(self.coeffs, n)

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "IndexPoly":
        return IndexPoly(poly_add(self.coeffs, _as_poly(other).coeffs))

    def __sub__(self, other) -> "IndexPoly":
        return self + (-1) * _as_poly(other)

    def __mul__(self, other) -> "IndexPoly":
        if isinstance(other, (int, Fraction)):
            return IndexPoly([c * other for c in self.coeffs])
        return IndexPoly(poly_mul(self.coeffs, _as_poly(other).coeffs))

    __rmul__ = __mul__
    __radd__ = __add__

    def shift(self, offset) -> "IndexPoly":
        """P(theta + offset) by Horner in (theta + offset)."""
        return self.substitute(IndexPoly([as_rat(offset), Fraction(1)]))

    def substitute(self, inner: "IndexPoly") -> "IndexPoly":
        acc = IndexPoly.const(0)
        for c in reversed(self.coeffs):
            acc = acc * inner + IndexPoly.const(c)
        return acc

    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    def __repr__(self):
        return f"IndexPoly({list(self.coeffs)})"


def _as_poly(x) -> IndexPoly:
    if isinstance(x, IndexPoly):
        return x
    return IndexPoly([x])


class IndexRatio:
    """Quotient of two index polynomials; no implicit cancellation."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = _as_poly(num)
        self.den = _as_poly(1 if den is None else den)
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")

    @classmethod
    def const(cls, value) -> "IndexRatio":
        return cls(IndexPoly.const(value))

    def __call__(self, n) -> Fraction:
        d = self.den(n)
        if d == 0:
            # A 0/0 here usually marks an exceptional index whose value is
            # fixed by parameter continuity, not by cancelling in the index;
            # callers must decide, so evaluation stays strict.
            raise ZeroDivisionError(f"index ratio pole at {n}")
        return self.num(n) / d

    def __add__(self, other) -> "IndexRatio":
        other = _as_ratio(other)
        return IndexRatio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other) -> "IndexRatio":
        return self + (-1) * _as_ratio(other)

    def __mul__(self, other) -> "IndexRatio":
        if isinstance(other, (int, Fraction)):
            return IndexRatio(self.num * other, self.den)
        other = _as_ratio(other)
        return IndexRatio(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__
    __radd__ = __add__

    def reciprocal(self) -> "IndexRatio":
        if self.num.is_zero():
            raise ZeroDivisionError("reciprocal of zero ratio")
        return IndexRatio(self.den, self.num)

    def shift(self, offset) -> "IndexRatio":
        return IndexRatio(self.num.shift(offset), self.den.shift(offset))

    def substitute(self, inner: IndexPoly) -> "IndexRatio":
        return IndexRatio(self.num.substitute(inner), self.den.substitute(inner))

    def equals(self, other: "IndexRatio") -> bool:
        """Equality as rational functions (cross multiplication)."""
        other = _as_ratio(other)
        return (self.num * other.den) == (other.num * self.den)

    def __repr__(self):
        return f"IndexRatio({list(self.num.coeffs)}, {list(self.den.coeffs)})"


def _as_ratio(x) -> IndexRatio:
    if isinstance(x, IndexRatio):
        return x
    if isinstance(x, IndexPoly):
        return IndexRatio(x)
    return IndexRatio(IndexPoly.const(x))


def affine(c0, c1=0) -> IndexRatio:
    """The ratio c0 + c1*theta."""
    return IndexRatio(IndexPoly([c0, c1]))
