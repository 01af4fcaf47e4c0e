"""Exact truncated formal power series over arbitrary-precision rationals.

A TruncSeries stores coefficients c_0..c_N of a series whose tail beyond
order N is *unknown*, not zero.  Binary operations therefore truncate to the
smaller operand order; nothing here ever fabricates a coefficient.  All
arithmetic is exact (fractions.Fraction), there is no floating point in this
module.

Products, division by a series, fractional powers and reversion are
fraction-free: they put their inputs over common denominators, run on Python
integers (division and powers over one running denominator, reversion on
the integer powers of y/f) and build one canonical Fraction per result
coefficient.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import (
    CompositionNonNilpotent,
    DivisionByNonUnit,
    NonUnitBase,
    NotReversible,
    OrderExhausted,
)

_ZERO = Fraction(0)


def as_rat(x) -> Fraction:
    """Coerce int / str ('p/q') / Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rationals_from_json(data, key: str) -> list:
    """The exact rationals listed under `key` in a parsed JSON object.

    Each entry must be an integer or a string such as "3/2"; anything else
    is a ValueError that names it.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {data!r:.60}")
    values = data.get(key)
    if not isinstance(values, list):
        raise ValueError(f"{key!r} must be a list, got {values!r:.60}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise ValueError(f"{key!r} entry {v!r} is not an integer or a string such as \"3/2\"")
    return [as_rat(v) for v in values]


def _over_common_den(values) -> tuple[int, list[int]]:
    """(d, nums): the lcm d of the denominators and the integers v*d.

    The fraction-free kernels (series and operator products, triangular
    inverses) run on these integers and build one Fraction per result.
    """
    pairs = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in pairs])
    return d, [p * (d // q) for p, q in pairs]


def _reduced(den: int, nums: list) -> tuple[int, list[int]]:
    """(den, nums) divided by gcd(den, *nums), with den made positive: the
    canonical integer form of the rationals nums[i]/den."""
    # a loop of two-argument calls: on CPython 3.11 a star call such as
    # gcd(den, *nums) left up to 2000 argument tuples per length in the
    # tuple free list, which showed as peak RSS
    g = abs(den)
    for v in nums:
        if g == 1:
            break
        g = math.gcd(g, v)
    if den < 0:
        g = -g
    if g == 1:
        return den, nums
    return den // g, [v // g for v in nums]


def _int_powers(s: "TruncSeries", count: int):
    """Yield s^1 .. s^count, each as canonical (den, nums) integers truncated
    to the order of s.  Lagrange inversion reads reversions and binomial
    composition operators off these powers, with no Fraction in between."""
    n = s.order
    d, base = _over_common_den(s.coeffs)
    base = [(j, v) for j, v in enumerate(base) if v]
    den, cur = 1, [1] + [0] * n
    for _ in range(count):
        acc = [0] * (n + 1)
        for i, a in enumerate(cur):
            if a:
                for j, b in base:
                    if i + j > n:
                        break
                    acc[i + j] += a * b
        den, cur = _reduced(den * d, acc)
        yield den, cur


def _append_over(nums: list, s: int, acc: int, den: int) -> int:
    """Append acc/(s*den) to the integers nums held over the running
    denominator s, and return the new running denominator.

    s and every earlier entry are multiplied by den/gcd(acc, den) first, so
    the new entry is an integer.  A negative den may leave s negative, which
    Fraction(num, s) normalizes.
    """
    g = math.gcd(acc, den)
    m = den // g
    if m != 1:
        s *= m
        for i in range(len(nums)):
            nums[i] *= m
    nums.append(acc // g)
    return s


class TruncSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        # from a list, not a generator: tuple() resizes a generator's result,
        # and resized tuples pile up in the free list of their final size
        cs = tuple([as_rat(c) for c in coeffs])
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = cs

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls([Fraction(0)] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([Fraction(1)] + [Fraction(0)] * order)

    @classmethod
    def constant(cls, value, order: int) -> "TruncSeries":
        return cls([as_rat(value)] + [Fraction(0)] * order)

    @classmethod
    def x(cls, order: int) -> "TruncSeries":
        if order < 1:
            raise ValueError("order must be >= 1 to hold the linear term")
        return cls([Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1))

    @classmethod
    def from_function(cls, fn: Callable[[int], object], order: int) -> "TruncSeries":
        return cls([as_rat(fn(i)) for i in range(order + 1)])

    @classmethod
    def from_polynomial(cls, coeffs: Sequence, order: int) -> "TruncSeries":
        """A polynomial is fully known: pad with exact zeros up to `order`."""
        cs = [as_rat(c) for c in coeffs]
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        return cls(cs + [Fraction(0)] * (order + 1 - len(cs)))

    # -- basics -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        if i < 0:
            return Fraction(0)
        if i > self.order:
            raise OrderExhausted(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def valuation(self) -> int:
        """Index of the first nonzero known coefficient (order+1 if none)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.order + 1

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise OrderExhausted(f"cannot extend known order {self.order} to {order}")
        return TruncSeries(self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def agrees_with(self, other: "TruncSeries", through: int | None = None) -> bool:
        n = min(self.order, other.order)
        if through is not None:
            n = min(n, through)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncSeries([{head}{tail}], order={self.order})"

    # -- ring operations ----------------------------------------------

    def _aligned(self, other: "TruncSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.order)
        n = self._aligned(other)
        return TruncSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.order)
        n = self._aligned(other)
        return TruncSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __rsub__(self, other):
        return TruncSeries.constant(other, self.order) - self

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            v = as_rat(other)
            return TruncSeries([c * v for c in self.coeffs])
        # integer convolution over the two common denominators
        n = self._aligned(other)
        da, xs = _over_common_den(self.coeffs[: n + 1])
        db, ys = _over_common_den(other.coeffs[: n + 1])
        ys = [(j, b) for j, b in enumerate(ys) if b]
        acc = [0] * (n + 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in ys:
                    if i + j > n:
                        break
                    acc[i + j] += a * b
        d = da * db
        return TruncSeries([Fraction(v, d) if v else _ZERO for v in acc])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            v = as_rat(other)
            if v == 0:
                raise ZeroDivisionError("division of a series by zero")
            return TruncSeries([c / v for c in self.coeffs])
        if other.coeffs[0] == 0:
            # Division is still exact when the numerator carries at least the
            # divisor's valuation; cancel the common power of y.
            v = other.valuation()
            if v > other.order or self.valuation() < v:
                raise DivisionByNonUnit("divisor has zero constant term")
            return self.truncate(min(self.order, v + other.order)).shift_down(v) / other.shift_down(v)
        # solve G*Q = A in integers: Q_k = N_k / s over one running s
        n = self._aligned(other)
        da, a = _over_common_den(self.coeffs[: n + 1])
        dg, g = _over_common_den(other.coeffs[: n + 1])
        g0 = g[0]
        g = [(j, v) for j, v in enumerate(g) if v and j]
        out, s = [], 1
        for k in range(n + 1):
            acc = a[k] * s
            for j, v in g:
                if j > k:
                    break
                acc -= v * out[k - j]
            s = _append_over(out, s, acc, g0)
        d = s * da
        return TruncSeries([Fraction(v * dg, d) if v else _ZERO for v in out])

    def __rtruediv__(self, other):
        return TruncSeries.constant(other, self.order) / self

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "TruncSeries":
        if self.order == 0:
            return TruncSeries.zero(0)
        return TruncSeries([(i + 1) * self.coeffs[i + 1] for i in range(self.order)])

    def integral(self, constant=0) -> "TruncSeries":
        out = [as_rat(constant)]
        out.extend(self.coeffs[i] / (i + 1) for i in range(self.order + 1))
        return TruncSeries(out)

    def shift_up(self, k: int = 1) -> "TruncSeries":
        """Multiply by y^k; the result is known through order + k."""
        return TruncSeries([Fraction(0)] * k + list(self.coeffs))

    def shift_down(self, k: int = 1) -> "TruncSeries":
        """Divide by y^k; requires valuation >= k."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise DivisionByNonUnit(f"valuation below {k}")
        return TruncSeries(self.coeffs[k:])

    # -- composition and reversion --------------------------------------

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """f(g) for g with g(0) = 0, exact to min(order_f, order_g)."""
        if inner.coeffs[0] != 0:
            raise CompositionNonNilpotent("inner series has nonzero constant term")
        n = self._aligned(inner)
        g = inner.truncate(n)
        acc = TruncSeries.constant(self.coeffs[n], n)
        for i in range(n - 1, -1, -1):
            acc = acc * g + self.coeffs[i]
        return acc

    def reverse(self) -> "TruncSeries":
        """Compositional inverse: the series phi with f(phi(y)) = y.

        Coefficients come from the Lagrange inversion formula
        [y^m] phi = (1/m) [y^(m-1)] (y/f)^m, valid whenever f(0)=0 and
        f'(0) != 0; this is exact through the input order.
        """
        out = [_ZERO] * (self.order + 1)
        for m, (den, nums) in enumerate(_int_powers(self._y_over_f(), self.order), start=1):
            out[m] = Fraction(nums[m - 1], den * m)
        return TruncSeries(out)

    def _y_over_f(self) -> "TruncSeries":
        """y/f, known through order - 1, for f with f(0) = 0 and f'(0) != 0."""
        if self.coeffs[0] != 0:
            raise NotReversible("series must vanish at 0")
        if self.order < 1 or self.coeffs[1] == 0:
            raise NotReversible("series must have nonzero linear term")
        return 1 / self.shift_down(1)

    # -- transcendental maps (coefficient recursions, exact) ------------

    def exp(self) -> "TruncSeries":
        if self.coeffs[0] != 0:
            raise NonUnitBase("exp needs zero constant term")
        n = self.order
        out = [Fraction(1)] + [Fraction(0)] * n
        for m in range(1, n + 1):
            acc = Fraction(0)
            for i in range(m):
                f = self.coeffs[m - i]
                if f != 0:
                    acc += (m - i) * f * out[i]
            out[m] = acc / m
        return TruncSeries(out)

    def log(self) -> "TruncSeries":
        if self.coeffs[0] != 1:
            raise NonUnitBase("log needs constant term 1")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            acc = m * self.coeffs[m]
            for i in range(1, m):
                h = out[m - i]
                if h != 0:
                    acc -= (m - i) * h * self.coeffs[i]
            out[m] = acc / m
        return TruncSeries(out)

    def pow_fraction(self, alpha) -> "TruncSeries":
        """f^alpha for rational alpha; requires f(0) = 1.

        Uses the first-order relation h' f = alpha f' h, which keeps every
        coefficient rational: with f_0 = 1 its coefficients give
        m h_m = sum_{k=1..m} (alpha k - (m - k)) f_k h_{m-k}.  With
        alpha = p/q and f = F/d over integers, h_m = N_m / s is solved over
        one running denominator s with divisor q d m at step m.
        """
        alpha = as_rat(alpha)
        if self.coeffs[0] != 1:
            raise NonUnitBase("fractional power needs constant term 1")
        p, q = alpha.as_integer_ratio()
        d, f = _over_common_den(self.coeffs)
        f = [(k, v) for k, v in enumerate(f) if v and k]
        out, s = [1], 1
        for m in range(1, self.order + 1):
            acc = 0
            for k, v in f:
                if k > m:
                    break
                acc += (p * k - q * (m - k)) * v * out[m - k]
            s = _append_over(out, s, acc, q * d * m)
        return TruncSeries([Fraction(v, s) if v else _ZERO for v in out])

    # -- coefficient transforms -----------------------------------------

    def weighted(self, weights: Sequence) -> "TruncSeries":
        """Multiply coefficient i by weights[i] (diagonal operator action)."""
        if len(weights) < self.order + 1:
            raise OrderExhausted("not enough diagonal values")
        return TruncSeries([self.coeffs[i] * as_rat(weights[i]) for i in range(self.order + 1)])

    def borel(self) -> "TruncSeries":
        """Divide coefficient i by i!."""
        out, f = [], 1
        for i, c in enumerate(self.coeffs):
            out.append(c / f)
            f *= i + 1
        return TruncSeries(out)

    def laplace(self) -> "TruncSeries":
        """Multiply coefficient i by i!."""
        out, f = [], 1
        for i, c in enumerate(self.coeffs):
            out.append(c * f)
            f *= i + 1
        return TruncSeries(out)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "TruncSeries":
        s = cls(rationals_from_json(data, "coeffs"))
        if s.order != data["order"]:
            raise ValueError("order field disagrees with coefficient count")
        return s


# -- stock series ------------------------------------------------------


def exp_series(c, order: int) -> TruncSeries:
    """exp(c*y) truncated."""
    c = as_rat(c)
    out, acc = [], Fraction(1)
    for i in range(order + 1):
        out.append(acc)
        acc = acc * c / (i + 1)
    return TruncSeries(out)


def geometric_series(c, order: int) -> TruncSeries:
    """1/(1 - c*y) truncated."""
    c = as_rat(c)
    out, acc = [], Fraction(1)
    for _ in range(order + 1):
        out.append(acc)
        acc *= c
    return TruncSeries(out)


def log1p_series(c, order: int) -> TruncSeries:
    """log(1 + c*y) truncated."""
    c = as_rat(c)
    out = [Fraction(0)]
    p = c
    for i in range(1, order + 1):
        out.append(-p / i if i % 2 == 0 else p / i)
        p *= c
    return TruncSeries(out)


def solve_autonomous_ode(rhs_poly: Sequence, order: int) -> TruncSeries:
    """Unique series solution of f' = P(f) with f(0) = 0.

    `rhs_poly` holds the coefficients of the polynomial P.  Coefficient
    recursion: (k+1) f_{k+1} = [y^k] P(f) = sum_j p_j [y^k] f^j, where
    [y^k] f^j = sum_{i=1..k} f_i [y^(k-i)] f^(j-1) needs only f_1 .. f_k.
    """
    p = [as_rat(c) for c in rhs_poly]
    f = [_ZERO] * (order + 1)
    # pows[j - 1][k] = [y^k] f^j for j = 1 .. deg P, filled one k at a time
    pows = [f] + [[_ZERO] * (order + 1) for _ in range(len(p) - 2)]
    for k in range(order):
        for j in range(1, len(pows)):
            prev = pows[j - 1]
            pows[j][k] = sum([f[i] * prev[k - i] for i in range(1, k + 1) if f[i] and prev[k - i]], _ZERO)
        acc = sum([p[j] * pows[j - 1][k] for j in range(1, len(p))], p[0] if k == 0 else _ZERO)
        f[k + 1] = acc / (k + 1)
    return TruncSeries(f)


def riccati_series(lam, a, b, order: int) -> TruncSeries:
    """Series solution of f' = 1 + lam*a*f + lam*b*f^2, f(0) = 0."""
    lam, a, b = as_rat(lam), as_rat(a), as_rat(b)
    return solve_autonomous_ode([Fraction(1), lam * a, lam * b], order)


def power_law_ode_series(n: int, lam, a, order: int) -> TruncSeries:
    """Series solution of f' = (1 + lam*a*f/n)^n, f(0) = 0."""
    lam, a = as_rat(lam), as_rat(a)
    c = lam * a / n
    poly = [math.comb(n, j) * c**j for j in range(n + 1)]
    return solve_autonomous_ode(poly, order)


def t_transform(f: TruncSeries) -> TruncSeries:
    """f / f' for f with f(0)=0, f'(0)=1; exact through the order of f."""
    if f.coeffs[0] != 0 or f.order < 1 or f.coeffs[1] != 1:
        raise NotReversible("transform needs f(0)=0 and f'(0)=1")
    fy = f.shift_down(1)           # f/y, constant 1, order-1 coefficients
    return (fy / f.derivative()).shift_up(1)


def t_and_omega(f: TruncSeries) -> tuple[TruncSeries, TruncSeries]:
    """Return (f/f', reverse(f/f')); the central pair of conjugation series."""
    tf = t_transform(f)
    return tf, tf.reverse()
