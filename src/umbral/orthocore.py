"""Three-term recurrences: polynomials, numerators, moments, continued
fractions, inner products, kernel deformation, tails, and index duality.

Conventions.  The canonical dual raising operator is x + a_theta + D b_theta
with the b-sequence to the *right* of D, so the monic recurrence reads

    p_{n+1}(x) = (x - a_n) p_n(x) - n b_n p_{n-1}(x)

and the squared norm of p_n is n! * b_1 ... b_n.  Displays with D on the
other side are converted through the shift rule h_theta D = D h_{theta-1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .checks import Check, first_failure, flag_check
from .errors import DegenerateB, NodeAtZeroOfP, OrderExhausted, SingularParams
from .indexfn import IndexRatio, Poly
from .opalg import OpMatrix, conjugate
from .series import TruncSeries, _from_pairs, _over_common_den, _reduced, as_rat, rationals_from_json


# -- recurrence data ----------------------------------------------------------


@dataclass(frozen=True)
class Recurrence:
    """List-backed coefficients a_0..a_D and b_1..b_D (b may contain zeros:
    a zero b_k ends the continued fraction at level k)."""

    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(as_rat(v) for v in self.a))
        object.__setattr__(self, "b", tuple(as_rat(v) for v in self.b))

    @property
    def depth(self) -> int:
        return min(len(self.a) - 1, len(self.b))

    def a_at(self, n: int) -> Fraction:
        return self.a[n]

    def b_at(self, n: int) -> Fraction:
        return self.b[n - 1]

    def norms(self, upto: int) -> list:
        """n! b_1 ... b_n for n = 0 .. upto."""
        out = [Fraction(1)]
        for n in range(1, upto + 1):
            out.append(out[-1] * n * self.b_at(n))
        return out

    def shift(self, k: int) -> "Recurrence":
        """Integer association: a_n -> a_{n+k}, b_n -> (k+n) b_{k+n} / n."""
        if k == 0:
            return self
        a = self.a[k:]
        b = tuple(Fraction(k + n) * self.b[k + n - 1] / n for n in range(1, len(self.b) - k + 1))
        return Recurrence(a, b)

    def agrees_to(self, other: "Recurrence", cap: int) -> tuple[int, bool]:
        """The round-trip rule for self read back from other's moments: d =
        min(self.depth, cap), and whether a_0..a_d and b_1..b_d agree."""
        d = min(self.depth, cap)
        return d, self.a[: d + 1] == other.a[: d + 1] and self.b[:d] == other.b[:d]

    def to_json(self) -> dict:
        return {"a": [str(v) for v in self.a], "b": [str(v) for v in self.b]}

    @classmethod
    def from_json(cls, data: dict) -> "Recurrence":
        a = rationals_from_json(data, "a")
        if not a:
            raise ValueError("a recurrence needs at least a_0")
        return cls(tuple(a), tuple(rationals_from_json(data, "b")))


@dataclass(frozen=True)
class ClosedFormRecurrence:
    """Coefficients as rational functions of the index, so the recurrence can
    be associated by any rational shift and compared exactly."""

    a_fn: IndexRatio
    b_fn: IndexRatio

    def truncate(self, depth: int, a0=None) -> Recurrence:
        """a_0..a_depth and b_1..b_depth; a pole in that range raises
        SingularParams.  `a0`, when given, is a_0, where the closed form is
        0/0 and parameter continuity fixes the value."""
        first = [] if a0 is None else [a0]
        for label, fn, start in (("a", self.a_fn, len(first)), ("b", self.b_fn, 1)):
            pole = fn.den.shift(start).first_root(depth + 1 - start)
            if pole is not None:
                raise SingularParams(f"{label}_n", f"index ratio pole at {pole + start}")
        return Recurrence(
            tuple(first + [self.a_fn(n) for n in range(len(first), depth + 1)]),
            tuple(self.b_fn(n) for n in range(1, depth + 1)),
        )

    def assoc(self, c) -> "ClosedFormRecurrence":
        c = as_rat(c)
        if c == 0:
            return self
        theta = Poly.theta()
        shifted_b = self.b_fn.shift(c)
        b_new = IndexRatio(
            Poly([c, Fraction(1)]) * shifted_b.num,
            theta * shifted_b.den,
        )
        return ClosedFormRecurrence(self.a_fn.shift(c), b_new)

    def equals(self, other: "ClosedFormRecurrence") -> bool:
        return self.a_fn.equals(other.a_fn) and self.b_fn.equals(other.b_fn)


# -- polynomials and numerators -------------------------------------------------


@dataclass
class OrthoFamily:
    polys: list      # p_0..p_N, each a Poly
    numerators: list  # R_0..R_N
    reversed_q: list  # Q_0..Q_N with p_n(x) = x^n Q_n(1/x)
    norms: list      # n! B_n

    @property
    def size(self) -> int:
        return len(self.polys) - 1

    def gop(self, nw: int) -> OpMatrix:
        """Operator sending x^n to p_n(x)."""
        if nw > self.size:
            raise OrderExhausted("family too short for requested working order")
        return OpMatrix.from_polys(self.polys, nw)


def polys_from_recurrence(rec: Recurrence, upto: int) -> OrthoFamily:
    """Monic family plus numerator/denominator convergent polynomials, by the
    direct three-term recurrences."""
    if upto > rec.depth:
        raise OrderExhausted(f"recurrence depth {rec.depth} below requested {upto}")
    x = Poly([0, 1])
    r = [Poly.const(0), x]
    q = [Poly.const(1), Poly([1, -rec.a_at(0)])]
    for n in range(1, upto):
        lin = Poly([1, -rec.a_at(n)])
        quad = Poly([0, 0, -n * rec.b_at(n)])
        r.append(r[n] * lin + quad * r[n - 1])
        q.append(q[n] * lin + quad * q[n - 1])
    r, q = r[: upto + 1], q[: upto + 1]
    return OrthoFamily([q[n].reflect(n) for n in range(upto + 1)], r, q, rec.norms(upto))


def determinant_identity_check(fam: OrthoFamily, upto: int, name: str) -> Check:
    """R_{n+1} Q_n - R_n Q_{n+1} == n! B_n x^(2n+1) for n <= upto."""
    return first_failure(name, (
        flag_check(
            name,
            fam.numerators[n + 1] * fam.reversed_q[n] - fam.numerators[n] * fam.reversed_q[n + 1]
            == Poly([0] * (2 * n + 1) + [fam.norms[n]]),
            f"n={n}",
        )
        for n in range(upto + 1)
    ))


# -- moments ------------------------------------------------------------------


@dataclass
class MomentSeries:
    moment_gf: TruncSeries  # ordinary generating function of the moments

    @cached_property
    def f0(self) -> TruncSeries:  # exponential-type generating function, f0(0) = 1
        return self.moment_gf.borel()


def moment_depth(order: int) -> int:
    """The depth that fixes mu_0..mu_order: depth d fixes mu_0..mu_(2d+1) (Flajolet 1980)."""
    return order // 2


def moments_from_recurrence(rec: Recurrence, order: int) -> MomentSeries:
    """Moments mu_0..mu_order by weighted Motzkin paths (Flajolet 1980;
    Viennot 1983): mu_k sums the k-step paths from height 0 back to 0, where
    an up step weighs 1, a level step at height j a_j and a down step from
    height j j b_j.  One table row per step holds the weights at each height
    as integers over one running denominator: O(order^2) operations.  Heights
    stop below m = moment_depth(order) + 1, as in the convergent R_m/(x Q_m),
    so depth m - 1 reaches `order`; a shallower recurrence is refused unless
    a zero b_k with k <= depth + 1 ends the fraction early.
    """
    m = moment_depth(order) + 1
    usable = min(m, rec.depth + 1)
    if usable < m and 0 not in rec.b[:usable]:
        # a fraction of fewer than m levels must end at a zero b_k, k <= usable
        raise OrderExhausted(f"recurrence depth {rec.depth} cannot reach order {order}")
    d, nums = _over_common_den(list(rec.a[:usable]) + [n * rec.b_at(n) for n in range(1, usable)])
    a, beta = nums[:usable], nums[usable:] + [0]  # a_j d and (j+1) b_{j+1} d; none above the top
    den, row = 1, [1]  # row[j]/den: paths ending at height j
    mus = [(row[0], 1)]
    for step in range(1, order + 1):
        # a height above order - step can no longer come back to 0
        top = min(len(row), usable - 1, order - step)
        r = [0] + row + [0, 0]  # r[j + 1] = row[j], zero off the reached heights
        new = [d * r[j] + a[j] * r[j + 1] + beta[j] * r[j + 2] for j in range(top + 1)]
        den, row = _reduced(den * d, new or [0])
        mus.append((row[0], den))
    return MomentSeries(TruncSeries._of(*_from_pairs(mus[: order + 1])))  # empty, a ValueError, below order 0


def recurrence_from_moments(moment_gf: TruncSeries, depth: Optional[int] = None) -> Recurrence:
    """J-fraction coefficients from N moments by the Chebyshev algorithm
    (Gautschi, Orthogonal Polynomials, 2004, section 2.1.7), O(N^2).

    Row k holds tau_{k,l} = sigma_{k,l}/sigma_{k,k} (sigma_{k,l} = <p_k, x^l>,
    l = k..N-k) as integers over one denominator, and k b_k tau_{k,l} =
    tau_{k-1,l+1} - a_{k-1} tau_{k-1,l} - tau_{k-2,l}: at l = k that is k b_k =
    sigma_{k,k}/sigma_{k-1,k-1}, and a_k = tau_{k,k+1} - tau_{k-1,k}.  Each
    denominator is the last times the integers of a_{k-1} and k b_k, so rows
    need no gcd.  Gives b_1..b_depth and a_0..a_depth as far as the moments
    reach (depth = (N - 1) // 2 by default).  Raises DegenerateB(k) when
    sigma_{k,k} = 0 (finite support, defective functional), or 0 if mu_0 != 1.
    """
    if moment_gf.nums[0] != moment_gf.den:
        raise DegenerateB(0)
    n = moment_gf.order
    levels = max(0, min((n - 1) // 2 if depth is None else depth, n // 2))
    hi = min(n, 2 * levels + 1)  # the highest moment the coefficients read
    den, cur = moment_gf._head(hi)  # tau_{k,k+i} = cur[i]/den
    prev_den, prev = 1, [0] * (hi + 1)  # row -1
    a = [Fraction(cur[1], den)] if hi >= 1 else []
    b = []
    for k in range(1, levels + 1):
        an, ad = a[-1].as_integer_ratio()
        m = ad * (den // prev_den)  # prev_den divides den; rho/(den ad) = k b_k tau_{k,l}
        rho = [ad * cur[i + 2] - an * cur[i + 1] - m * prev[i + 2] for i in range(hi - 2 * k + 1)]
        if rho[0] == 0:
            raise DegenerateB(k)
        beta = Fraction(rho[0], den * ad)
        b.append(beta / k)
        bn, bd = beta.as_integer_ratio()
        if len(rho) > 1:
            a.append(Fraction(rho[1] * bd - cur[1] * ad * bn, den * ad * bn))
        prev_den, prev, den, cur = den, cur, den * ad * bn, [v * bd for v in rho]
    return Recurrence(tuple(a), tuple(b))


# -- inner products --------------------------------------------------------------


def inner_product(h1: Poly, h2: Poly, f0: TruncSeries) -> Fraction:
    """<h1, h2> = sum_k mu_k [x^k](h1 h2), with mu_k = k! [y^k] f0."""
    prod = h1 * h2
    if len(prod.nums) - 1 > f0.order:
        raise OrderExhausted("moment series too short for this product degree")
    acc = 0
    fact = 1
    for k, c in enumerate(prod.nums):
        if c:
            acc += c * f0.nums[k] * fact
        fact *= k + 1
    return Fraction(acc, prod.den * f0.den)


def gram_matrix(fam: OrthoFamily, f0: TruncSeries, upto: int) -> list:
    return [
        [inner_product(fam.polys[i], fam.polys[j], f0) for j in range(upto + 1)]
        for i in range(upto + 1)
    ]


# -- the dual series family --------------------------------------------------------


def fn_family(fam: OrthoFamily, f0: TruncSeries, upto: int) -> list:
    """The series f_n = p_n(d/dy) f0 / B_n, each in y^n + y^(n+1)C[[y]];
    `dual_series_checks` verifies them."""
    fns = []
    for n in range(upto + 1):
        acc = TruncSeries.zero(f0.order - n)
        deriv = f0
        for k, c in enumerate(fam.polys[n].coeffs):
            if c != 0:
                acc = acc + c * deriv.truncate(f0.order - n)
            if k < n:
                deriv = deriv.derivative()
        fns.append(acc / (fam.norms[n] / math.factorial(n)))
    return fns


def dual_series_checks(fam: OrthoFamily, f0: TruncSeries, fns: list) -> list:
    """The identities of the series f_n from `fn_family`, on the accessible
    truncation block: valuation n with leading coefficient 1, the exponential
    expansion e^{xy} = sum p_n(x) f_n(y)/n!, and the addition theorem
    f0(y+t) = sum (B_n/n!) f_n(y) f_n(t), compared through t^4."""
    upto = len(fns) - 1

    def leading(name):
        for n, fn in enumerate(fns):
            for i in range(min(n, fn.order) + 1):
                yield flag_check(name, fn.coeffs[i] == (1 if i == n else 0), f"f_{n} has {fn.coeffs[i]} at y^{i}")

    def expansion(name):
        # coefficient of x^a y^b in sum_n p_n(x) f_n(y)/n! must be [a==b]/a!
        for a in range(upto + 1):
            for b in range(a, upto + 1):
                acc = Fraction(0)
                for n in range(a, b + 1):
                    pa = fam.polys[n].coeffs[a]
                    if pa != 0 and b <= fns[n].order:
                        acc += pa * fns[n].coeffs[b] / math.factorial(n)
                expected = Fraction(1, math.factorial(a)) if a == b else Fraction(0)
                yield flag_check(name, acc == expected, f"x^{a} y^{b}: {acc} != {expected}")

    def addition(name):
        # the t^j coefficient of the left side is f0^(j)(y)/j!, i.e. binom(i+j,j)
        # times the (i+j)-th coefficient of f0; only n <= j contribute on the
        # right because f_n has valuation n
        for j in range(min(4, upto, f0.order // 2) + 1):
            for i in range(f0.order - j + 1):
                lhs = math.comb(i + j, j) * f0.coeffs[i + j]
                acc = Fraction(0)
                for n in range(j + 1):
                    acc += fam.norms[n] / math.factorial(n) ** 2 * fns[n].coeffs[i] * fns[n].coeffs[j]
                yield flag_check(name, lhs == acc, f"y^{i} t^{j}: {lhs} != {acc}")

    names = ("dual series valuation and leading term", "exponential expansion", "addition theorem")
    return [first_failure(name, cases(name)) for name, cases in zip(names, (leading, expansion, addition))]


# -- Christoffel-Darboux ------------------------------------------------------------


def cd_kernel_identity_check(fam: OrthoFamily, upto: int, name: str) -> Check:
    """(x-y) * sum_k (n! B_n / k! B_k) p_k(x) p_k(y) equals
    p_n(y) p_{n+1}(x) - p_{n+1}(y) p_n(x), as bivariate polynomials, for
    1 <= n <= upto."""
    return first_failure(name, (flag_check(name, _cd_kernel_holds(fam, n), f"n={n}") for n in range(1, upto + 1)))


def _cd_kernel_holds(fam: OrthoFamily, n: int) -> bool:
    """The identity at one n, as polynomials in x for each power y^j: the
    left side's is x A_j - A_(j-1), A_j = sum_k (n! B_n / k! B_k) [y^j]p_k p_k.
    Multiplying the kernel sum by (x-y) instead of dividing the right side
    keeps everything polynomial."""
    pn, pn1 = fam.polys[n], fam.polys[n + 1]
    prev = Poly.const(0)
    for j in range(n + 2):
        acc = Poly.const(0)
        for k in range(j, n + 1):  # p_k has degree k
            acc = acc + fam.polys[k] * (fam.norms[n] / fam.norms[k] * fam.polys[k].coeffs[j])
        if Poly.theta() * acc - prev != pn1 * (pn.coeffs[j] if j <= n else 0) - pn * pn1.coeffs[j]:
            return False
        prev = acc
    return True


@dataclass
class KernelDeformation:
    gop: OpMatrix
    a: list
    b: list
    expected_a: list
    expected_b: list
    fault: str  # the reader's, "" when the deformed raising operator is three-term


def christoffel_darboux(fam: OrthoFamily, rec: Recurrence, y0, nw: int) -> KernelDeformation:
    """Deformed family operator G . V (1-D)^(-1) V^(-1), V = diag(p(y0)/B) for
    B_n = norms[n]/n!, one product with the conjugate by W = V^(-1), and its
    extracted three-term data against the closed-form display; only tests
    call it, kept for a spectral-transforms suite to reuse."""
    y0 = as_rat(y0)
    values = []
    for n in range(nw + 3):
        if n >= len(fam.polys):
            raise OrderExhausted("family too short for kernel deformation")
        v = fam.polys[n](y0)
        if v == 0:
            raise NodeAtZeroOfP(f"p_{n}(y0) = 0")
        values.append(v)
    w = [values[n] * fam.norms[n + 1] / (values[n + 1] * fam.norms[n] * (n + 1)) for n in range(nw)]
    geom = OpMatrix.series_of_d(TruncSeries.from_function(lambda i: 1, nw), nw)
    gq = fam.gop(nw) @ geom.diag_conj(r.as_integer_ratio() for r in w)
    a, b, fault = conjugate(gq, OpMatrix.x_op(nw)).three_term()
    expected_a = [
        rec.a_at(n + 1) - values[n + 1] / values[n] + values[n + 2] / values[n + 1]
        for n in range(len(a))
    ]
    expected_b = [
        values[n + 1] * values[n - 1] * rec.b_at(n) / values[n] ** 2
        for n in range(1, len(b) + 1)
    ]
    return KernelDeformation(gq, a, b, expected_a, expected_b, fault)


# -- numerator functional -------------------------------------------------------------


def numerator_functional_check(fam: OrthoFamily, f0: TruncSeries, upto: int, name: str) -> Check:
    """y^n R_n(1/y) equals the moment functional applied to the divided
    difference (p_n(x) - p_n(y))/(x - y) in x, for n <= upto."""

    def holds(n):
        p = fam.polys[n].coeffs
        rhs = [Fraction(0)] * max(n, 1)
        for k in range(1, len(p)):
            if p[k] == 0:
                continue
            if k - 1 > f0.order:
                raise OrderExhausted("moment series too short")
            for i in range(k):
                rhs[k - 1 - i] += p[k] * f0.coeffs[i] * math.factorial(i)
        return Poly(rhs) == fam.numerators[n].reflect(n)

    return first_failure(name, (flag_check(name, holds(n), f"n={n}") for n in range(upto + 1)))


# -- index-shift operator identity -------------------------------------------------------


def assoc_one_identity_check(rec: Recurrence, nw: int, name: str) -> Check:
    """The operator moment_gf(L) . L . G . x sends x^n to the n-th polynomial
    of the first associated family, checked column by column."""
    fam = polys_from_recurrence(rec, min(rec.depth, 2 * nw))
    gf = moments_from_recurrence(rec, nw).moment_gf
    op = assoc_one_from_moment_operator(fam, gf, nw)
    assoc_fam = polys_from_recurrence(rec.shift(1), min(rec.depth - 1, nw))
    return first_failure(name, (
        flag_check(name, op.apply_poly(Poly([0] * n + [1])) == assoc_fam.polys[n], f"n={n}")
        for n in range(min(op.reliable, assoc_fam.size) + 1)
    ))


def assoc_one_from_moment_operator(fam: OrthoFamily, moment_gf: TruncSeries, nw: int) -> OpMatrix:
    """The first associated family operator written through the 0-derivative:
    moment_gf(L) . L . G . x."""
    return OpMatrix.series_of_l(moment_gf, nw) @ OpMatrix.l_op(nw) @ fam.gop(nw) @ OpMatrix.x_op(nw)


# -- duality ------------------------------------------------------------------------------


def dual_recurrence(cf: ClosedFormRecurrence) -> ClosedFormRecurrence:
    """Index duality on closed-form recurrence coefficients: the k-th
    coefficient function a^k(theta) maps to (-1)^k a^k(k-1-theta), so a(theta)
    to a(-1-theta) and b(theta) to -b(-theta)."""
    return ClosedFormRecurrence(cf.a_fn.substitute(Poly([-1, -1])), cf.b_fn.substitute(Poly([0, -1])) * -1)


def dual_identity_check(cf: ClosedFormRecurrence, name: str) -> Check:
    """The negative-index series of a family is the moment tail of its dual:
    both sides of sum_n n! B-hat_n / (p-hat_n p-hat_{n+1}) expanded in 1/x
    against the dual family's moment coefficients, to 8 terms."""
    terms = 8
    rec = dual_recurrence(cf).truncate(terms + 6)
    fam = polys_from_recurrence(rec, terms + 2)
    gf = moments_from_recurrence(rec, terms + 3).moment_gf
    lhs = gf.coeffs[:terms]  # c_0/x + c_1/x^2 + ... of x^(-1) F(x^(-1)) = sum mu_n x^(-n-1)
    rhs = tail_from_partial_fractions(fam, terms)
    return flag_check(name, lhs == rhs, f"{lhs} != {rhs}")


def tail_from_partial_fractions(fam: OrthoFamily, terms: int) -> tuple:
    """The coefficients of 1/x, 1/x^2, ... in the partial sums of
    sum_n n! B_n / (p_n(x) p_{n+1}(x)), to `terms` terms."""
    needed = (terms + 1) // 2 + 1
    if fam.size < needed + 1:
        raise OrderExhausted("family too short for requested tail")
    acc = [Fraction(0)] * terms
    for n in range(needed):
        prod = fam.polys[n] * fam.polys[n + 1]
        deg = len(prod.coeffs) - 1  # 2n+1, monic
        rev = prod.reflect(deg)  # 1 + lower-order corrections in u = 1/x
        inv = TruncSeries.one(terms - 1) / TruncSeries.from_polynomial(rev.coeffs, terms - 1)
        # 1/(p_n p_{n+1}) = u^deg * inv(u); coefficient j of the tail is u^(j+1)
        for j in range(deg - 1, terms):
            acc[j] += fam.norms[n] * inv.coeffs[j + 1 - deg]
    return tuple(acc)
