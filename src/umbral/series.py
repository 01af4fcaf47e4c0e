"""Exact truncated formal power series over arbitrary-precision rationals.

A TruncSeries stores coefficients c_0..c_N of a series whose tail beyond
order N is *unknown*, not zero.  Binary operations therefore truncate to the
smaller operand order; nothing here ever fabricates a coefficient.  All
arithmetic is exact, there is no floating point in this module.

Coefficients are stored as operator columns are (`CommonDen`): integers
over one positive denominator, in lowest terms, so equal series have equal
storage.  Every operation reads and writes that storage on Python integers
and reduces each result once; ``coeffs`` is a read-only Fraction view,
built on its first read and kept.
"""
from __future__ import annotations

import math
import operator
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
    """(d, nums): the lcm d of the denominators and the integers v*d, the
    canonical form of `_reduced` for values in lowest terms."""
    pairs = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in pairs])
    return d, [p * (d // q) for p, q in pairs]


def _from_pairs(pairs) -> tuple[int, list[int]]:
    """The canonical (den, nums) of the rationals p/q given as integer pairs
    (q != 0, any sign, not necessarily in lowest terms): over the lcm of the
    q, then reduced once, which is cheaper than a gcd per pair."""
    d = math.lcm(*[q for _, q in pairs])
    return _reduced(d, [p * (d // q) for p, q in pairs])


def _reduced(den: int, nums: list) -> tuple[int, list[int]]:
    """(den, nums) divided by gcd(den, *nums), with den made positive: the
    canonical integer form of the rationals nums[i]/den."""
    # one C-level call, which stops reading at a gcd of 1
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return den, nums
    return den // g, [v // g for v in nums]


def _conv(xs, ys, n: int | None = None) -> list:
    """The integer product of two coefficient lists, through degree n when
    n is given; zero entries are skipped."""
    size = len(xs) + len(ys) - 1 if n is None else n + 1
    out = [0] * size
    ys = [(j, y) for j, y in enumerate(ys) if y]
    for i, x in enumerate(xs):
        if x:
            for j, y in ys:
                if i + j >= size:
                    break
                out[i + j] += x * y
    return out


def _int_powers(s: "TruncSeries", count: int):
    """Yield s^1 .. s^count, each as canonical (den, nums) integers truncated
    to the order of s.  Lagrange inversion reads reversions off these
    powers, with no Fraction in between."""
    den, cur = 1, [1]
    for _ in range(count):
        den, cur = _reduced(den * s.den, _conv(cur, s.nums, s.order))
        yield den, cur


def _append_over(nums: list, s: int, acc: int, den: int) -> int:
    """Append acc/(s*den) to the integers nums held over the running
    denominator s, and return the new running denominator: s and every
    earlier entry are multiplied by den/gcd(acc, den) first.  A negative den
    may leave s negative, which `_reduced` normalizes."""
    g = math.gcd(acc, den)
    m = den // g
    if m != 1:
        s *= m
        for i in range(len(nums)):
            nums[i] *= m
    nums.append(acc // g)
    return s


class CommonDen:
    """Rationals nums[i]/den in canonical storage: den > 0 and
    gcd(den, *nums) == 1, so equal values have equal storage and hashes.
    Subclasses give `_set`, which stores canonical storage as it is."""

    __slots__ = ("den", "nums", "_coeffs")

    @classmethod
    def _of(cls, den: int, nums):
        obj = cls.__new__(cls)
        obj._set(den, nums)
        return obj

    @classmethod
    def _make(cls, den: int, nums: list):
        """nums[i]/den, reduced once to canonical storage."""
        return cls._of(*_reduced(den, nums))

    @property
    def coeffs(self) -> tuple:
        """The values as a tuple of Fractions, built on the first read and
        kept."""
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = tuple([Fraction(v, den) if v else _ZERO for v in self.nums])
            object.__setattr__(self, "_coeffs", cs)
        return cs

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))


class TruncSeries(CommonDen):
    __slots__ = ()

    def __init__(self, coeffs: Iterable):
        self._set(*_over_common_den([as_rat(c) for c in coeffs]))

    def _set(self, den: int, nums):
        if not len(nums):
            raise ValueError("a series needs at least the constant coefficient")
        self.den, self.nums, self._coeffs = den, tuple(nums), None

    def _head(self, n: int) -> tuple[int, tuple]:
        """The canonical storage of the truncation to order n <= order."""
        if n >= len(self.nums) - 1:
            return self.den, self.nums
        return _reduced(self.den, self.nums[: n + 1])

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls._of(1, (0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls._of(1, (1,) + (0,) * order)

    @classmethod
    def constant(cls, value, order: int) -> "TruncSeries":
        p, q = as_rat(value).as_integer_ratio()
        return cls._of(q, (p,) + (0,) * order)

    @classmethod
    def x(cls, order: int) -> "TruncSeries":
        if order < 1:
            raise ValueError("order must be >= 1 to hold the linear term")
        return cls._of(1, (0, 1) + (0,) * (order - 1))

    @classmethod
    def from_function(cls, fn: Callable[[int], object], order: int) -> "TruncSeries":
        return cls([as_rat(fn(i)) for i in range(order + 1)])

    @classmethod
    def from_polynomial(cls, coeffs: Sequence, order: int) -> "TruncSeries":
        """A polynomial is fully known: pad with exact zeros up to `order`."""
        cs = [as_rat(c) for c in coeffs][: order + 1]
        return cls(cs + [_ZERO] * (order + 1 - len(cs)))

    # -- basics -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, i: int) -> Fraction:
        if i < 0:
            return _ZERO
        if i > self.order:
            raise OrderExhausted(f"coefficient {i} beyond truncation order {self.order}")
        return Fraction(self.nums[i], self.den)

    def valuation(self) -> int:
        """Index of the first nonzero known coefficient (order+1 if none)."""
        for i, v in enumerate(self.nums):
            if v:
                return i
        return self.order + 1

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise OrderExhausted(f"cannot extend known order {self.order} to {order}")
        return TruncSeries._of(*self._head(order))

    def agrees_with(self, other: "TruncSeries", through: int | None = None) -> bool:
        return self.first_difference(other, through) is None

    def first_difference(self, other: "TruncSeries", through: int | None = None):
        """The first index through `through` (by default, the shorter order)
        where the coefficients differ, or None.  A series that ends before
        `through` differs at its order + 1, so that no comparison passes on
        less than it was asked."""
        end = min(self.order, other.order)
        n = end if through is None else min(end, through)
        # x/da == y/db as x*ka == y*kb over the cofactors of gcd(da, db); on
        # equal canonical prefixes one denominator divides the other, so one
        # factor is 1 and the other small
        g = math.gcd(self.den, other.den)
        ka, kb = other.den // g, self.den // g
        for i, (x, y) in enumerate(zip(self.nums[: n + 1], other.nums[: n + 1])):
            if x * ka != y * kb:
                return i
        return None if through is None or through <= end else end + 1

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncSeries([{head}{tail}], order={self.order})"

    # -- ring operations ----------------------------------------------

    def _aligned(self, other: "TruncSeries") -> int:
        return min(self.order, other.order)

    def _combine(self, other, sign: int) -> "TruncSeries":
        """self + sign * other, over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.order)
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, sign * (den // other.den)
        return TruncSeries._make(den, [ka * x + kb * y for x, y in zip(self.nums, other.nums)])

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return TruncSeries._of(self.den, [-v for v in self.nums])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.as_integer_ratio()
            return TruncSeries._make(self.den * q, [p * v for v in self.nums])
        # integer convolution over the two common denominators
        n = self._aligned(other)
        da, xs = self._head(n)
        db, ys = other._head(n)
        return TruncSeries._make(da * db, _conv(xs, ys, n))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.as_integer_ratio()
            if p == 0:
                raise ZeroDivisionError("division of a series by zero")
            return TruncSeries._make(self.den * p, [q * v for v in self.nums])
        if other.nums[0] == 0:
            # Division is still exact when the numerator carries at least the
            # divisor's valuation; cancel the common power of y.
            v = other.valuation()
            if v > other.order or self.valuation() < v:
                raise DivisionByNonUnit("divisor has zero constant term")
            return self.truncate(min(self.order, v + other.order)).shift_down(v) / other.shift_down(v)
        # solve G*Q = A in integers: Q_k = N_k / s over one running s
        n = self._aligned(other)
        da, a = self._head(n)
        dg, g = other._head(n)
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
        return TruncSeries._make(s * da, [v * dg for v in out])

    def __rtruediv__(self, other):
        return TruncSeries.constant(other, self.order) / self

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "TruncSeries":
        if self.order == 0:
            return TruncSeries.zero(0)
        nums = self.nums
        return TruncSeries._make(self.den, [i * nums[i] for i in range(1, len(nums))])

    def integral(self, constant=0) -> "TruncSeries":
        pairs = [(v, self.den * (i + 1)) for i, v in enumerate(self.nums)]
        return TruncSeries._of(*_from_pairs([as_rat(constant).as_integer_ratio()] + pairs))

    def shift_up(self, k: int = 1) -> "TruncSeries":
        """Multiply by y^k; the result is known through order + k."""
        return TruncSeries._of(self.den, (0,) * k + self.nums)

    def shift_down(self, k: int = 1) -> "TruncSeries":
        """Divide by y^k; requires valuation >= k."""
        if any(self.nums[:k]):
            raise DivisionByNonUnit(f"valuation below {k}")
        # only zeros are dropped, so the storage stays canonical
        return TruncSeries._of(self.den, self.nums[k:])

    # -- composition and reversion --------------------------------------

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """f(g) for g with g(0) = 0, exact to min(order_f, order_g), by
        Horner's rule on integers over a running denominator."""
        if inner.nums[0] != 0:
            raise CompositionNonNilpotent("inner series has nonzero constant term")
        n = self._aligned(inner)
        df, f = self._head(n)
        dg, g = inner._head(n)
        den, acc = 1, [f[n]]
        for i in range(n - 1, -1, -1):
            new = _conv(acc, g, n)
            new[0] += f[i] * den * dg
            den, acc = _reduced(den * dg, new)
        return TruncSeries._make(den * df, acc)

    def reverse(self) -> "TruncSeries":
        """Compositional inverse: the series phi with f(phi(y)) = y.

        Coefficients come from the Lagrange inversion formula
        [y^m] phi = (1/m) [y^(m-1)] h^m with h = y/f, valid whenever f(0)=0
        and f'(0) != 0; this is exact through the input order.  Only one
        coefficient of each power is read, so the powers are taken baby step,
        giant step: with k = isqrt(n) and m = i k + j (1 <= j <= k),
        [y^(m-1)] h^m = sum_t [y^t] h^(ik) . [y^(m-1-t)] h^j, one dot product
        of a giant power with a baby power.  That is k baby powers, about
        n/k giant ones, one truncated product each, and n dot products:
        O(n^2.5) coefficient products.  The rationals are those of the
        powers, so the canonical result does not depend on the route.
        """
        n, h = self.order, self.y_over_f()
        k = math.isqrt(n)
        babies = list(_int_powers(h, k))  # h^1 .. h^k, each n long
        step_den, step = babies[-1]
        rev = [nums[::-1] for _, nums in babies]  # rev[j][n - m + t] = [y^(m-1-t)] h^(j+1)
        g_den, giant, pairs = 1, [1], [(0, 1)]
        for m in range(1, n + 1):
            i, j = divmod(m - 1, k)
            if i and not j:  # h^(ik) = h^((i-1)k) . h^k
                g_den, giant = _reduced(g_den * step_den, _conv(giant, step, h.order))
            pairs.append((sum(map(operator.mul, giant[:m], rev[j][n - m:])), g_den * babies[j][0] * m))
        return TruncSeries._of(*_from_pairs(pairs))

    def y_over_f(self) -> "TruncSeries":
        """y/f, known through order - 1, for f with f(0) = 0 and f'(0) != 0."""
        self._require_reversible()
        return 1 / self.shift_down(1)

    def _require_reversible(self):
        if self.nums[0] != 0:
            raise NotReversible("series must vanish at 0")
        if self.order < 1 or self.nums[1] == 0:
            raise NotReversible("series must have nonzero linear term")

    # -- transcendental maps (coefficient recursions, exact) ------------

    def exp(self) -> "TruncSeries":
        """h = exp(g) from h' = g' h: m h_m = sum_{k=1..m} k g_k h_{m-k}."""
        if self.nums[0] != 0:
            raise NonUnitBase("exp needs zero constant term")
        return self._first_order(1, 0, 1)

    def log(self) -> "TruncSeries":
        """The integral of f'/f."""
        if self.nums[0] != self.den:
            raise NonUnitBase("log needs constant term 1")
        if self.order == 0:
            return TruncSeries.zero(0)
        return (self.derivative() / self).integral()

    def pow_fraction(self, alpha) -> "TruncSeries":
        """f^alpha for rational alpha = p/q; requires f(0) = 1.  From
        h' f = alpha f' h with f_0 = 1, which keeps every coefficient
        rational: q m h_m = sum_{k=1..m} (p k - q (m - k)) f_k h_{m-k}."""
        if self.nums[0] != self.den:
            raise NonUnitBase("fractional power needs constant term 1")
        p, q = as_rat(alpha).as_integer_ratio()
        return self._first_order(p, -q, q)

    def _first_order(self, a: int, b: int, q: int) -> "TruncSeries":
        """h with h_0 = 1 and q m h_m = sum_{k=1..m} (a k + b (m - k)) f_k h_{m-k}:
        with f = F/d, h_m = N_m / s over one running denominator s, with
        divisor q d m at step m."""
        f = [(k, v) for k, v in enumerate(self.nums) if v and k]
        out, s = [1], 1
        for m in range(1, self.order + 1):
            acc = 0
            for k, v in f:
                if k > m:
                    break
                acc += (a * k + b * (m - k)) * v * out[m - k]
            s = _append_over(out, s, acc, q * self.den * m)
        return TruncSeries._make(s, out)

    # -- coefficient transforms -----------------------------------------

    def weighted(self, weights: Sequence) -> "TruncSeries":
        """Multiply coefficient i by weights[i] (diagonal operator action)."""
        n = len(self.nums)
        if len(weights) < n:
            raise OrderExhausted("not enough diagonal values")
        dw, w = _over_common_den([as_rat(weights[i]) for i in range(n)])
        return TruncSeries._make(self.den * dw, [x * y for x, y in zip(self.nums, w)])

    def borel(self) -> "TruncSeries":
        """Divide coefficient i by i!: over den N!, it is nums[i] N!/i!."""
        f = math.factorial(self.order)
        return TruncSeries._make(self.den * f, [v * (f // math.factorial(i)) for i, v in enumerate(self.nums)])

    def laplace(self) -> "TruncSeries":
        """Multiply coefficient i by i!."""
        return TruncSeries._make(self.den, [v * math.factorial(i) for i, v in enumerate(self.nums)])

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "TruncSeries":
        s = cls(rationals_from_json(data, "coeffs"))
        order = data.get("order")
        if isinstance(order, bool) or not isinstance(order, int):
            raise ValueError(f"'order' must be an integer, got {order!r:.60}")
        if s.order != order:
            raise ValueError("order field disagrees with coefficient count")
        return s


# -- stock series ------------------------------------------------------


def exp_series(c, order: int) -> TruncSeries:
    """exp(c*y) truncated."""
    p, q = as_rat(c).as_integer_ratio()
    return TruncSeries._of(*_from_pairs([(p**i, q**i * math.factorial(i)) for i in range(order + 1)]))


def geometric_series(c, order: int) -> TruncSeries:
    """1/(1 - c*y) truncated; kept as the series tests' closed-form reference."""
    p, q = as_rat(c).as_integer_ratio()
    return TruncSeries._of(*_from_pairs([(p**i, q**i) for i in range(order + 1)]))


def log1p_series(c, order: int) -> TruncSeries:
    """log(1 + c*y) truncated; kept as the series tests' closed-form reference."""
    p, q = as_rat(c).as_integer_ratio()
    return TruncSeries._of(*_from_pairs([(0, 1)] + [((-1) ** (i + 1) * p**i, q**i * i) for i in range(1, order + 1)]))


def solve_autonomous_ode(rhs_poly: Sequence, order: int) -> TruncSeries:
    """Unique series solution of f' = P(f) with f(0) = 0, P given by its
    coefficients: (k+1) f_{k+1} = [y^k] P(f) = sum_j p_j [y^k] f^j, and
    [y^k] f^j = sum_{i=1..k} f_i [y^(k-i)] f^(j-1) needs only f_1 .. f_k.
    On integers: P = Pn/dp, f = F/s over the lcm s of the denominators so
    far and f^j over s^j, all rescaled when a coefficient needs a larger s.
    """
    dp, pn = _over_common_den([as_rat(c) for c in rhs_poly])
    deg = len(pn) - 1
    f = [0] * (order + 1)
    # pows[j - 1][k] = s^j [y^k] f^j for j = 1 .. deg, filled one k at a time
    pows = [f] + [[0] * (order + 1) for _ in range(deg - 1)]
    s = 1
    for k in range(order):
        for j in range(1, len(pows)):
            prev = pows[j - 1]
            pows[j][k] = sum([f[i] * prev[k - i] for i in range(1, k + 1) if f[i] and prev[k - i]])
        # [y^k] P(f) = acc / (dp s^deg): sum_j Pn_j s^(deg-j) [y^k] s^j f^j
        # by Horner's rule in s (p_0 enters at k = 0 only)
        acc = pn[0] if k == 0 else 0
        for j in range(1, deg + 1):
            acc = acc * s + pn[j] * pows[j - 1][k]
        den = dp * s**deg * (k + 1)
        g = math.gcd(acc, den)
        den //= g
        m = den // math.gcd(s, den)  # lcm(s, den) / s
        if m != 1:
            for j, row in enumerate(pows, start=1):
                scale = m**j
                for i in range(k + 1):
                    row[i] *= scale
            s *= m
        f[k + 1] = acc // g * (s // den)
    # s is the lcm of the coefficients' own denominators: canonical
    return TruncSeries._of(s, f)


def riccati_series(lam, a, b, order: int) -> TruncSeries:
    """Series solution of f' = 1 + lam*a*f + lam*b*f^2, f(0) = 0."""
    lam, a, b = as_rat(lam), as_rat(a), as_rat(b)
    return solve_autonomous_ode([Fraction(1), lam * a, lam * b], order)


def t_transform(f: TruncSeries) -> TruncSeries:
    """f / f' for f with f(0)=0, f'(0)=1; exact through the order of f."""
    if f.nums[0] != 0 or f.order < 1 or f.nums[1] != f.den:
        raise NotReversible("transform needs f(0)=0 and f'(0)=1")
    fy = f.shift_down(1)           # f/y, constant 1, order-1 coefficients
    return (fy / f.derivative()).shift_up(1)


def _scaled(psi) -> tuple[int, list]:
    """(c, psi(c z)) for a polynomial psi with psi(0) = 1 and denominator c:
    the integers psi_j c^j = nums_j c^(j-1)."""
    if psi.nums[0] != psi.den:
        raise NonUnitBase("the base polynomial needs psi(0) = 1")
    return psi.den, [1] + [v * psi.den ** (j - 1) for j, v in enumerate(psi.nums) if j]


def _scaled_power(psi, alpha, order: int) -> tuple[int, list, TruncSeries]:
    """(c, psi~, psi~^alpha to `order`) for psi~(z) = psi(c z) (`_scaled`),
    the start of the rows of psi's powers that `psi_diagonal` and
    `OpMatrix.sheffer_pair` read."""
    c, p = _scaled(psi)
    power = TruncSeries._of(1, tuple(p[: order + 1]) + (0,) * (order + 1 - len(p))).pow_fraction(alpha)
    return c, p, power


def psi_diagonal(psi, alpha, order: int) -> TruncSeries:
    """sum_n y^n [w^n] psi(w)^(alpha+n) to `order`, for a polynomial psi with
    psi(0) = 1.  For f' = psi(f) and omega = reverse(f/f'), rho = f(omega)
    solves rho = y psi(rho), and by Lagrange-Buermann inversion (Gessel 2016)
    this diagonal is f'(omega)^alpha omega'.  With w = c z (`_scaled_power`),
    [w^n] psi^beta = c^(-n) [z^n] psi~^beta: psi~^alpha is made once over one
    denominator and each next power by the integer polynomial psi~, in
    O(deg(psi) order^2)."""
    c, p, power = _scaled_power(psi, alpha, order)
    cur, nums = list(power.nums), []
    for n in range(order + 1):
        nums.append(cur[n] * c ** (order - n))
        cur = _conv(cur, p, order)
    return TruncSeries._make(power.den * c**order, nums)
