"""Polynomials, and rational functions of an integer (or rational) index.

`Poly` is the one univariate polynomial type: the monic families and
convergents of `orthocore`, operator columns, and closed-form coefficients
a_n = P(n)/Q(n), which `IndexRatio` evaluates at shifted and non-integer
arguments, compares exactly, and dualizes by affine substitutions.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .series import TruncSeries, as_rat

_ZERO = Fraction(0)


class Poly:
    """Immutable polynomial with Fraction coefficients, low degree first and
    trailing zeros trimmed; the zero polynomial has coeffs (0,)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [as_rat(c) for c in coeffs] or [_ZERO]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, value) -> "Poly":
        return cls([value])

    @classmethod
    def theta(cls) -> "Poly":
        return cls([0, 1])

    def __call__(self, x):
        """P(x) by Horner at a rational x, or at a series or a Poly x (then
        P composed with x)."""
        if not isinstance(x, (TruncSeries, Poly)):
            x = as_rat(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        short, long = sorted((self.coeffs, _as_poly(other).coeffs), key=len)
        out = list(long)
        for i, c in enumerate(short):
            out[i] += c
        return Poly(out)

    def __sub__(self, other) -> "Poly":
        return self + (-1) * _as_poly(other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        q = _as_poly(other).coeffs
        out = [_ZERO] * (len(self.coeffs) + len(q) - 1)
        for i, a in enumerate(self.coeffs):
            if a != 0:
                for j, b in enumerate(q):
                    if b != 0:
                        out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def shift(self, offset) -> "Poly":
        """P(theta + offset)."""
        return self.substitute(Poly([as_rat(offset), Fraction(1)]))

    def substitute(self, inner: "Poly") -> "Poly":
        """P(inner(theta))."""
        return self(inner)

    def reflect(self, n: int) -> "Poly":
        """x^n P(1/x), for n at least the degree."""
        pad = n + 1 - len(self.coeffs)
        if pad < 0:
            raise ValueError(f"degree {len(self.coeffs) - 1} above {n}")
        return Poly([0] * pad + list(reversed(self.coeffs)))

    def is_zero(self) -> bool:
        return self.coeffs == (_ZERO,)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly([x])


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
        return cls(Poly.const(value))

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

    def substitute(self, inner: Poly) -> "IndexRatio":
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
    if isinstance(x, Poly):
        return IndexRatio(x)
    return IndexRatio(Poly.const(x))


def affine(c0, c1=0) -> IndexRatio:
    """The ratio c0 + c1*theta."""
    return IndexRatio(Poly([c0, c1]))
