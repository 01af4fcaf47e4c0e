"""Polynomials, and rational functions of an integer (or rational) index.

`Poly` is the one univariate polynomial type: the monic families and
convergents of `orthocore`, operator columns, and closed-form coefficients
a_n = P(n)/Q(n), which `IndexRatio` evaluates at shifted and non-integer
arguments, compares exactly, and dualizes by affine substitutions.  An
IndexRatio is also a consecutive-ratio rule: `products` builds the sequence
it generates, the one way the engine builds a product sequence.  A Poly
is stored as series are (`series.CommonDen`), and its arithmetic, Horner
evaluation and composition run on those integers.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .errors import DiagSingular
from .series import CommonDen, TruncSeries, _conv, _over_common_den, as_rat

_ZERO = Fraction(0)


class Poly(CommonDen):
    """Immutable polynomial, low degree first, with trailing zeros trimmed;
    the zero polynomial is (1, (0,))."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence):
        self._set(*_over_common_den([as_rat(c) for c in coeffs] or [_ZERO]))

    def _set(self, den: int, nums):
        end = len(nums)
        while end > 1 and not nums[end - 1]:
            end -= 1
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(nums[:end]))
        object.__setattr__(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, value) -> "Poly":
        return cls([value])

    @classmethod
    def theta(cls) -> "Poly":
        return cls._of(1, (0, 1))

    def __call__(self, x):
        """P(x) by Horner at a rational x, or at a series or a Poly x (then
        P composed with x)."""
        if isinstance(x, Poly):
            return self._compose(x)
        if isinstance(x, TruncSeries):
            acc = _ZERO
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        return Fraction(*self._at(*as_rat(x).as_integer_ratio()))

    def _at(self, p: int, q: int = 1) -> tuple[int, int]:
        """(N, D) with P(p/q) = N/D, not reduced: for q > 0 and degree d,
        N = sum v_i p^i q^(d-i) by Horner's rule and D = den q^d."""
        nums = self.nums
        acc, qk = nums[-1], 1
        for i in range(len(nums) - 2, -1, -1):
            qk *= q
            acc = acc * p + nums[i] * qk
        return acc, self.den * qk

    def first_root(self, count: int):
        """The least integer m in [0, count) with P(m) = 0, or None; no Fraction is made."""
        return next((m for m in range(count) if not self._at(m)[0]), None)

    def _compose(self, inner: "Poly") -> "Poly":
        """P(inner) by Horner's rule on integers: with inner = Q/e, the
        partial sums are integer polynomials over e^k, A -> A.Q + v_i e^k."""
        e, q = inner.den, inner.nums
        nums = self.nums
        acc, ek = [nums[-1]], 1
        for i in range(len(nums) - 2, -1, -1):
            ek *= e
            acc = _conv(acc, q)
            acc[0] += nums[i] * ek
        return Poly._make(self.den * ek, acc)

    def _combine(self, other, sign: int) -> "Poly":
        """self + sign * other, over the lcm of the two denominators."""
        other = _as_poly(other)
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, sign * (den // other.den)
        return Poly._make(den, [ka * x + kb * y for x, y in zip_longest(self.nums, other.nums, fillvalue=0)])

    def __add__(self, other) -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other) -> "Poly":
        return self._combine(other, -1)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            p, q = other.as_integer_ratio()
            return Poly._make(self.den * q, [p * v for v in self.nums])
        other = _as_poly(other)
        return Poly._make(self.den * other.den, _conv(self.nums, other.nums))

    __rmul__ = __mul__
    __radd__ = __add__

    def shift(self, offset) -> "Poly":
        """P(theta + offset)."""
        p, q = as_rat(offset).as_integer_ratio()
        return self._compose(Poly._of(q, (p, q)))

    def reflect(self, n: int) -> "Poly":
        """x^n P(1/x), for n at least the degree."""
        pad = n + 1 - len(self.nums)
        if pad < 0:
            raise ValueError(f"degree {len(self.nums) - 1} above {n}")
        return Poly._of(self.den, (0,) * pad + self.nums[::-1])

    def is_zero(self) -> bool:
        return self.nums == (0,)

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
        p, q = n.as_integer_ratio() if isinstance(n, int) else as_rat(n).as_integer_ratio()
        dn, dd = self.den._at(p, q)
        if dn == 0:
            # A 0/0 here usually marks an exceptional index whose value is
            # fixed by parameter continuity, not by cancelling in the index;
            # callers must decide, so evaluation stays strict.
            raise ZeroDivisionError(f"index ratio pole at {n}")
        nn, nd = self.num._at(p, q)
        return Fraction(nn * dd, nd * dn)

    def values(self, count: int) -> list:
        """self(0), ..., self(count - 1): integer Horner and one Fraction each."""
        return [self(n) for n in range(count)]

    def products(self, count: int, offset=0) -> tuple:
        """v_0 = 1 and v_{n+1} = v_n * self(offset + n), `count` values, each
        ratio by integer Horner and each value one Fraction.  A zero ratio
        leaves zeros after it; a pole at any index, 0/0 included, raises
        DiagSingular(n)."""
        vals, v = [Fraction(1)], Fraction(1)
        for a, b in self._ratios(count - 1, offset):
            v = Fraction(v.numerator * a, v.denominator * b)
            vals.append(v)
        return tuple(vals)

    def _ratios(self, count: int, offset=0):
        """Yield self(offset + n), n < count, as integer pairs (a, b) in lowest
        terms, by integer Horner; a pole raises DiagSingular(n), 0/0 included."""
        p, q = as_rat(offset).as_integer_ratio()
        for n in range(count):
            x = p + n * q
            dn, dd = self.den._at(x, q)
            if dn == 0:
                raise DiagSingular(n, f"the ratio has a pole at {Fraction(x, q)}")
            nn, nd = self.num._at(x, q)
            g = math.gcd(nn * dd, nd * dn)
            yield nn * dd // g, nd * dn // g

    def __add__(self, other) -> "IndexRatio":
        other = _as_ratio(other)
        return IndexRatio(self.num * other.den + other.num * self.den, self.den * other.den)

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
        return IndexRatio(self.num(inner), self.den(inner))

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
