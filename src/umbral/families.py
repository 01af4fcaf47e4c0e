"""Construction and verification of the named orthogonal families.

Each family's basis-map operator is one function of a ShefferCore, the
defining product of elementary factors (`sheffer_op`, `deformed_op`,
`wilson_op`).  A builder calls that function, then re-derives the three-term
data, the moment generating function, and the closed-form displays
independently and checks them against each other; a build that needs
another family's operator calls the function, not that family's builder.
All checks are exact; every builder returns its Check records and none
raises on a failed identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .checks import Check, conjugation_check, first_failure, flag_check, op_check, series_check, value_check
from .errors import DiagSingular, SingularParams
from .indexfn import IndexRatio, Poly, affine
from .opalg import OpMatrix, conjugate, mgf_from_gop
from .orthocore import ClosedFormRecurrence, Recurrence, moments_from_recurrence
from .series import (
    TruncSeries,
    _reduced,
    as_rat,
    exp_series,
    psi_diagonal,
    riccati_series,
    solve_autonomous_ode,
    t_transform,
)

FAMILY_MARGIN = 4


# -- parameters ---------------------------------------------------------------


class FamilyParams:
    """Base of the parameter records.

    KEYS maps each `--params` key to its default, in field order.  The
    Fraction fields are made exact on construction.
    """

    KEYS: dict = {}

    def __post_init__(self):
        for f in fields(self):
            if f.type == "Fraction":  # annotations are strings in this module
                object.__setattr__(self, f.name, as_rat(getattr(self, f.name)))

    @classmethod
    def from_params(cls, params: dict):
        """The record for a parsed `--params` dict; an undeclared key is an error."""
        _check_keys(params, cls.KEYS)
        return cls(*(params.get(key, default) for key, default in cls.KEYS.items()))


def _check_keys(params: dict, accepted) -> None:
    for key in params:
        if key not in accepted:
            raise ValueError(f"unknown parameter {key!r}; accepted: {', '.join(accepted)}")


def over_lam(tilde: IndexRatio, lam) -> IndexRatio:
    """tilde(m)/(1 + lam m): a ratio from the part kept by `shifted_ell`."""
    return tilde * IndexRatio(1, Poly([1, lam]))


def linear_guard(forms, count: int, detail: str = "k={}") -> None:
    """Raise SingularParams(name, detail) at the least integer k < count with
    c + v k = 0 for a form (name, c, v), the first form listed on a tie.  The
    one candidate per form is k = -c/v; a form with v = 0 is taken as nonzero
    (its c is)."""
    hits = [(k, i) for i, (_, c, v) in enumerate(forms) if v and (k := -c / v).denominator == 1 and 0 <= k < count]
    if hits:
        k, i = min(hits)
        raise SingularParams(forms[i][0], detail.format(k.numerator))


@dataclass(frozen=True)
class ShefferParams(FamilyParams):
    lam: Fraction
    a: Fraction
    b: Fraction
    KEYS = {"lambda": 0, "a": 0, "b": 0}
    tilde = IndexRatio.const(1)

    @cached_property
    def ratio(self) -> IndexRatio:
        """F_{m+1}/F_m = 1/(1 + lam m) of the ultraspherical deformation."""
        return over_lam(self.tilde, self.lam)

    def guard(self, nw: int):
        linear_guard([("1+lambda*k", 1, self.lam)], nw + 2)


@dataclass(frozen=True)
class HahnParams(FamilyParams):
    """The shifted-factorial deformation over the square case 4b = lam a^2."""

    lam: Fraction
    a: Fraction
    s: Fraction
    KEYS = {"lambda": 2, "a": Fraction(1, 2), "s": Fraction(1, 2)}

    def guard(self, nw: int):
        if self.s.denominator == 1 and 1 <= self.s <= nw:
            raise SingularParams("(s-1)_theta", f"integer s={self.s} <= working order {nw}")


class SquareCaseParams(FamilyParams):
    """kappa, beta and b of the square case, each made once per record from
    the fields lam, a and r."""

    @cached_property
    def kappa(self) -> Fraction:
        return 2 * self.lam / (2 + self.lam)

    @cached_property
    def beta(self) -> Fraction:
        return self.r * self.kappa + (1 - self.r) * self.lam

    @cached_property
    def b(self) -> Fraction:
        return self.lam * self.a * self.a / 4

    def _guard_at(self, beta, nw: int):
        lam, kappa = self.lam, self.kappa
        linear_guard([("1+lambda*k", 1, lam), ("1+kappa*k", 1, kappa), ("1+beta*k", 1, beta)], nw + 2)


@dataclass(frozen=True)
class JacobiParams(SquareCaseParams):
    """The square case: the quadratic coefficient is fixed to lam*a^2/4."""

    lam: Fraction
    a: Fraction
    r: Fraction
    KEYS = {"lambda": 0, "a": 0, "r": 0}

    def __post_init__(self):
        super().__post_init__()
        if self.lam == 0:
            raise SingularParams("lambda=0", "kappa undefined")
        if self.lam == -2:
            raise SingularParams("lambda=-2", "kappa infinite")

    @cached_property
    def tilde(self) -> IndexRatio:
        return IndexRatio(Poly([1, self.beta]), Poly([1, self.kappa]))

    @cached_property
    def ratio(self) -> IndexRatio:
        """F_{m+1}/F_m = (1 + beta m)/((1 + lam m)(1 + kappa m))."""
        return over_lam(self.tilde, self.lam)

    def guard(self, nw: int):
        self._guard_at(self.beta, nw)


@dataclass(frozen=True)
class WilsonParams(SquareCaseParams):
    lam: Fraction
    a: Fraction
    r: Fraction
    rt: Fraction
    h: Fraction
    KEYS = {"lambda": 0, "a": 0, "r": 0, "rtilde": 0, "h": 0}

    def __post_init__(self):
        super().__post_init__()
        if self.lam in (0, -2):
            raise SingularParams("lambda", "kappa undefined")

    @cached_property
    def beta_t(self) -> Fraction:
        return self.rt * self.kappa + (1 - self.rt) * self.lam

    @cached_property
    def mixing_tilde(self) -> IndexRatio:
        """(h (1+beta n)(1+lam(n+1))^2 + (1-h)(1+beta_t n))/(1+kappa n)."""
        lam, h = self.lam, self.h
        shifted = Poly([1 + lam, lam])
        num = h * Poly([1, self.beta]) * shifted * shifted + (1 - h) * Poly([1, self.beta_t])
        return IndexRatio(num, Poly([1, self.kappa]))

    @cached_property
    def mixing_ratio(self) -> IndexRatio:
        """H_{n+1}/H_n = mixing_tilde(n)/(1+lam n)."""
        return over_lam(self.mixing_tilde, self.lam)

    def ells(self, count: int, c=0) -> list:
        """The shift values 2 a h lam^2/kappa (1+k+c)(1+beta(k+c)), k < count."""
        scale = 2 * self.a * self.h * self.lam * self.lam / self.kappa
        return [scale * (1 + k + c) * (1 + self.beta * (k + c)) for k in range(count)]

    def guard(self, nw: int):
        self._guard_at(self.beta, nw)
        self._guard_at(self.beta_t, nw)
        k = self.mixing_ratio.num.first_root(nw + 1)
        if k is not None:
            raise SingularParams("mixing ratio", f"zero at k={k}")


@dataclass(frozen=True)
class MultiTermParams(FamilyParams):
    n: int
    lam: Fraction
    a: Fraction
    t: tuple  # n weights (plus an optional extra one), summing to 1
    KEYS = {"n": 2, "lambda": 0, "a": 0}  # and the weights t0 .. t{n}

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "t", tuple(as_rat(v) for v in self.t))
        if self.n < 2:
            raise SingularParams("n", "need n >= 2")
        if self.lam == 0:
            raise SingularParams("lambda=0", "the deformation needs 1/lambda powers")
        if len(self.t) not in (self.n, self.n + 1):
            raise SingularParams("weights", f"need {self.n} or {self.n + 1} weights")
        if sum(self.t) != 1:
            raise SingularParams("weights", "must sum to 1")

    @classmethod
    def from_params(cls, params: dict) -> "MultiTermParams":
        n = params.get("n", cls.KEYS["n"])
        if n != int(n):
            raise ValueError(f"multiterm needs an integer n, got {n}")
        n = int(n)
        # an input that holds fewer than n weights fails its weight count
        # anyway, so the key list never needs to be longer than the input
        weights = [f"t{k}" for k in range(min(n, len(params)) + 1)]
        _check_keys(params, [*cls.KEYS, *weights])
        return cls(
            n,
            params.get("lambda", cls.KEYS["lambda"]),
            params.get("a", cls.KEYS["a"]),
            tuple(params[key] for key in weights if key in params),
        )

    @property
    def extended(self) -> bool:
        return len(self.t) == self.n + 1

    @cached_property
    def lam_ks(self) -> tuple:
        """lambda_k = n lam/(n + k lam) for k < n, None where n + k lam = 0."""
        n, lam = self.n, self.lam
        return tuple(n * lam / (n + k * lam) if n + k * lam else None for k in range(n))

    def _lam_k(self, k: int) -> Fraction:
        if self.lam_ks[k] is None:
            raise SingularParams("lambda_k", f"k={k}")
        return self.lam_ks[k]

    @cached_property
    def ratio(self) -> IndexRatio:
        """sum_k t_k/(1 + lambda_k m), plus t_n when extended, over the common
        denominator prod_k (1 + lambda_k m)."""
        num, den = Poly([self.t[self.n] if self.extended else 0]), Poly([1])
        for k in range(self.n):
            factor = Poly([1, self._lam_k(k)])
            num, den = num * factor + self.t[k] * den, den * factor
        return IndexRatio(num, den)

    def guard(self, nw: int):
        for k in range(self.n):
            linear_guard([("1+lambda_k*m", 1, self._lam_k(k))], nw + 2, f"k={k}, m={{}}")
        m = self.ratio.num.first_root(nw + 1)
        if m is not None:
            raise SingularParams("weight ratio", f"zero at m={m}")


# -- shared operator kit ---------------------------------------------------------


def diag_conj(values: Sequence, op: OpMatrix) -> OpMatrix:
    """v^(-1) . op . v for the diagonal operator v with the given values: the
    one place a diagonal is inverted."""
    for n, v in enumerate(values):
        if v == 0:
            raise DiagSingular(n, "cannot invert zero diagonal value")
    return OpMatrix.diag_op([1 / as_rat(v) for v in values], op.nw) @ op @ OpMatrix.diag_op(values, op.nw)


def x_times(values: Sequence, nw: int) -> OpMatrix:
    """x * g(theta): multiply then shift degree up."""
    return OpMatrix.banded({1: values}, nw)


def d_weights(values: Sequence) -> list:
    """n values[n-1] in column n: the subdiagonal of g(theta) D, or of D b_theta for values b_1, b_2, ..."""
    return [n * v for n, v in enumerate([0, *values])]


def coeff_then_d(values: Sequence, nw: int) -> OpMatrix:
    """g(theta) * D in display order (D acts first)."""
    return OpMatrix.banded({-1: d_weights(values)}, nw)


@dataclass
class ShefferCore:
    """Series and operators shared by every deformation built over one base
    f' = psi(f), psi a polynomial with psi(0) = 1; C_f, each inner(c) and
    each diagonal G_alpha = f'(omega)^alpha omega' are read off psi in
    O(nw^2).  fpow, inner, diagonal and fprime_omega_pow make each value
    once, c_f and c_tf_inv are made on first use.  No core makes C_tf or
    inverts an operator (see `conjugation_trick_checks`), and only that lemma
    reads C_tf^(-1)."""

    lam: Fraction
    f: TruncSeries
    psi: Poly
    fprime: TruncSeries
    tf: TruncSeries
    nw: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)  # (method, argument) -> value

    def _once(self, method: str, arg, make):
        key = (method, as_rat(arg))
        if key not in self._memo:
            self._memo[key] = make(key[1])
        return self._memo[key]

    @cached_property
    def c_f(self) -> OpMatrix:
        return OpMatrix.umbral_compose_ode(self.psi, self.nw)

    @cached_property
    def c_tf_inv(self) -> OpMatrix:
        """C_tf^(-1), built from the powers of tf/y with no inverse."""
        return OpMatrix.umbral_compose_inverse(self.tf, self.nw)

    def diagonal(self, alpha) -> TruncSeries:
        """G_alpha = f'(omega)^alpha omega', omega = reverse(tf): `psi_diagonal`."""
        return self._once("diagonal", alpha, lambda a: psi_diagonal(self.psi, a, self.nw))

    @property
    def omega_prime(self) -> TruncSeries:
        return self.diagonal(0)

    def fpow(self, alpha) -> OpMatrix:
        return self._once("fpow", alpha, lambda a: OpMatrix.series_of_d(self.fprime.pow_fraction(a), self.nw))

    def inner(self, c=0) -> OpMatrix:
        """C_tf^(-1) f'(D)^alpha C_f with alpha = -c - 1/lam: at c = 0 the
        common core of the deformations, at c the core of their associated
        families.  C_f sends e^(xt) to e^(x phi), f'(D)^alpha multiplies that
        by f'(phi)^alpha = psi^alpha and C_tf^(-1) puts tf(phi) = y/psi for
        y: the pair (psi^alpha, y/psi)."""
        return self._once("inner", c, lambda c: OpMatrix.sheffer_pair(self.psi, -c - 1 / self.lam, self.nw))

    def fprime_omega_pow(self, alpha) -> TruncSeries:
        """f'(omega)^alpha to order nw: `psi_diagonal` at alpha over omega'."""
        return self._once("omega_pow", alpha, lambda a: self.diagonal(a) / self.omega_prime)


def sheffer_core(f: TruncSeries, psi: Poly, lam, nw: int) -> ShefferCore:
    """The core over f with f' = psi(f), f known to order nw."""
    return ShefferCore(lam=as_rat(lam), f=f, psi=psi, fprime=psi(f), tf=t_transform(f), nw=nw)


def riccati_core(lam, a, b, nw: int) -> ShefferCore:
    """The core over the Riccati base f' = 1 + lam a f + lam b f^2."""
    return sheffer_core(riccati_series(lam, a, b, nw), Poly([1, lam * a, lam * b]), lam, nw)


def guarded_core(p, order: int, margin: int) -> tuple[int, ShefferCore]:
    """The working order of a build over p's Riccati base, once p's guard
    has passed at it, and the core over that base."""
    nw = order + margin
    p.guard(nw)
    return nw, riccati_core(p.lam, p.a, p.b, nw)


def sheffer_op(core: ShefferCore) -> OpMatrix:
    """f'(D)^(-1/lam) C_f: the operator of the base family with lam != 0."""
    return core.fpow(Fraction(-1) / core.lam) @ core.c_f


def poch_over_fact(c) -> IndexRatio:
    """(c+1+theta)/(1+theta), the ratio of the sequence (c+1)_theta/theta!."""
    return IndexRatio(Poly([c + 1, 1]), Poly([1, 1]))


def deformed_op(core: ShefferCore, ratio: IndexRatio, c) -> OpMatrix:
    """W^(-1) . inner(c) . W for W_theta = (c+1)_theta/theta! F_{c+theta}/F_c,
    F_{m+1}/F_m = ratio(m): at c = 0 the ultraspherical, Jacobi, Wilson
    (before C2) and multiterm (before its left factor) operators, at c their
    associated ones before ell(L).  W's ratio is read at m = c + theta."""
    weights = (poch_over_fact(c).shift(-c) * ratio).products(core.nw + 1, c)
    return diag_conj(weights, core.inner(c))


def wilson_op(core: ShefferCore, p: WilsonParams, c2: OpMatrix) -> OpMatrix:
    """C2 . H^(-1) . inner . H with H_{m+1}/H_m the mixing ratio and C2 the
    shift operator sending x^n to prod_{k<n} (x + ell_k)."""
    return c2 @ deformed_op(core, p.mixing_ratio, 0)


def lemma_resolvent(tf: TruncSeries, sigma: Fraction, nw: int) -> OpMatrix:
    """R = 1 + sigma x tf(D) with raised 1: for sigma = p/q, column n of
    tf(D) moved down a row, times p, plus q times its denominator in row n."""
    p, q = sigma.as_integer_ratio()
    cols = [
        _reduced(q * den, [p * v + (i == n) * q * den for i, v in enumerate([0, *nums[:nw]])])
        for n, (den, nums) in enumerate(OpMatrix.series_of_d(tf, nw).cols)
    ]
    return OpMatrix._of(cols, nw, 1, nw)


def conjugation_trick_checks(core: ShefferCore, sigma, through: Optional[int] = None) -> list:
    """The load-bearing lemma: for any nonzero sigma,

        C_tf x (1+sigma theta)^(-1) C_tf^(-1)
          = x f'(D)^(-1/sigma) (1 + sigma x (f/f')(D))^(-1) f'(D)^(1/sigma)
          = x f'(D)^(-1/sigma) C_f (1+sigma theta)^(-1) C_f^(-1) f'(D)^(1/sigma)

    verified as exact matrix equalities before each construction uses it,
    with no inverse: for F = f'(D)^(-1/sigma), R = 1 + sigma x (f/f')(D) and
    Dg = (1+sigma theta)^(-1), as x Dg C_tf^(-1) F R == Y and
    x Dg inner(1/sigma - 1/lam) == Y C_f Dg with Y = C_tf^(-1) x F: these are
    C_tf^(-1) E F R = 0 and C_tf^(-1) E F C_f = 0 for each displayed
    difference E.  F R and F C_f are invertible upper triangular and
    C_tf^(-1) is upper triangular with diagonal tf'(0)^n = 1, so each form
    first fails in the column its displayed form does (see
    `checks.conjugation_check`).  inner is read off psi, so the composition
    form also compares it with its product route.  Both sides keep
    reliable >= nw - 1 (R's book-kept raise of 1 trims one column), so the
    compared block, the only columns computed (`OpMatrix.cut`), is columns
    0..through for every caller's `through`.
    """
    sigma = as_rat(sigma)
    nw = core.nw
    dg_vals = IndexRatio(1, Poly([1, sigma])).values(nw + 1)
    x_dg, dg = x_times(dg_vals, nw), OpMatrix.diag_op(dg_vals, nw)
    fpow = core.fpow(-1 / sigma)
    y = core.c_tf_inv @ (OpMatrix.x_op(nw) @ fpow).cut(through)
    resolvent = lemma_resolvent(core.tf, sigma, nw)
    name = f"conjugation-trick sigma={sigma}"
    inner = core.inner(1 / sigma - 1 / core.lam).cut(through)
    return [
        op_check(f"{name} (resolvent form)", x_dg @ (core.c_tf_inv @ (fpow @ resolvent.cut(through))), y, through),
        op_check(f"{name} (composition form)", x_dg @ inner, y @ core.c_f.cut(through) @ dg, through),
    ]


# -- family result record -----------------------------------------------------------


def _ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, reduced with one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


@dataclass
class FamilyResult:
    name: str
    gop: OpMatrix
    recurrence: Recurrence
    mgf: TruncSeries
    closed_form: Optional[ClosedFormRecurrence] = None
    checks: list = field(default_factory=list)

    @property
    def norms(self) -> list:
        return self.recurrence.norms(len(self.recurrence.b))

    def to_json(self, upto: Optional[int] = None) -> dict:
        upto = self.gop.reliable if upto is None else min(upto, self.gop.reliable)
        polys = [[_ratio_str(v, den) for v in nums[: n + 1]] for n, (den, nums) in enumerate(self.gop.cols[: upto + 1])]
        return {
            "name": self.name,
            "order": upto,
            "polys": polys,
            "recurrence": self.recurrence.to_json(),
            "f0": self.mgf.to_json(),
            "norms": [str(v) for v in self.norms],
            "checks": [c.to_json() for c in self.checks],
        }


def extract_recurrence(gop: OpMatrix, through: Optional[int] = None) -> tuple:
    """The dual raising operator of gop, the recurrence read off it and the
    reader's fault ("" when the operator is three-term)."""
    u = conjugate(gop, OpMatrix.x_op(gop.nw))
    a, b, fault = u.three_term(through)
    return u, Recurrence(tuple(a), tuple(b)), fault


def raising_check(name: str, fault: str, u: OpMatrix, display: OpMatrix, through: Optional[int]) -> Check:
    """The check `name` of a dual raising operator u against its display,
    failed with the reader's fault as its witness where that comparison
    passes.  A three-term display has no entry outside the band and raising
    entries 1, so the comparison fails first, in the column where u departs
    from it, when the fault is in a compared column."""
    return first_failure(name, (op_check(name, u, display, through), flag_check(name, not fault, fault)))


def closed_form_raising(cf: ClosedFormRecurrence, nw: int, a0=None) -> OpMatrix:
    """x + a_theta + D b_theta from closed-form coefficients; `a0`, when
    given, replaces a_0 where the closed form is 0/0 and parameter
    continuity fixes the value.  A pole at an index <= nw raises
    SingularParams."""
    rec = cf.truncate(nw, a0)
    return OpMatrix.banded({1: [1] * (nw + 1), 0: rec.a, -1: d_weights(rec.b)}, nw)


# -- base family -----------------------------------------------------------------


def sheffer_closed_form(p: ShefferParams) -> ClosedFormRecurrence:
    return ClosedFormRecurrence(
        IndexRatio(Poly([p.a, p.a * p.lam])),
        IndexRatio(Poly([p.b * (2 - p.lam), p.b * p.lam])),
    )


def generating_function_check(barg: OpMatrix, gen_weight: TruncSeries, phi: TruncSeries, order: int):
    """Column m <= order of the bar transform barg against gen_weight phi^m
    through coefficient order, as column 0 against gen_weight and column m
    against column m-1 times phi: coefficient i of a product reads only
    coefficients <= i of its factors, so this gives the first failure, and
    its witness, of the comparison with gen_weight phi^m."""
    top = min(order, barg.reliable)

    def columns():
        expect = gen_weight
        for m in range(order + 1):
            den, nums = barg.cols[m]
            got = TruncSeries._make(den, nums[: top + 1])
            yield series_check(f"generating function column {m}", got, expect, order)
            expect = got * phi

    return first_failure(f"generating function to bidegree ({order},{order})", columns())


def sheffer_family(p: ShefferParams, order: int, margin: int = FAMILY_MARGIN) -> FamilyResult:
    """The base three-term family with raising data x + a(1+lam theta) + b(2+lam theta)D."""
    nw = order + margin
    p.guard(nw)
    lam, a, b = p.lam, p.a, p.b
    checks = []
    if lam == 0:
        ell = TruncSeries.from_polynomial([0, -a, -b], nw).exp()
        gop = OpMatrix.series_of_d(ell, nw)
        gen_weight = ell
        phi = TruncSeries.x(nw)
    else:
        core = riccati_core(lam, a, b, nw)
        gop = sheffer_op(core)
        phi = core.f.reverse()  # by Lagrange inversion, apart from the C_f read off psi
        phiprime = 1 / TruncSeries.from_polynomial([1, lam * a, lam * b], nw)
        gen_weight = phiprime.pow_fraction(Fraction(1) / lam)
        checks.append(
            series_check("phi' closed form", phi.derivative(), phiprime)
        )
    u, rec, fault = extract_recurrence(gop)
    closed = sheffer_closed_form(p)
    checks.append(raising_check("dual raising display", fault, u, closed_form_raising(closed, nw), order))
    name = "closed-form recurrence"
    checks.append(first_failure(name, (
        flag_check(
            name, closed.a_fn(n) == rec.a_at(n) and closed.b_fn(n) == rec.b_at(n), f"mismatch at n={n}"
        )
        for n in range(1, min(order, rec.depth) + 1)
    )))
    checks.append(generating_function_check(gop.bar(), gen_weight, phi, order))  # covers C_f
    top = min(order, 2 * (rec.depth // 2))
    f0 = mgf_from_gop(gop).truncate(top)
    checks.append(series_check("sheffer: mgf pipelines agree", f0, moments_from_recurrence(rec, top).f0))
    return FamilyResult("sheffer", gop, rec, f0, closed, checks)


# -- first deformation --------------------------------------------------------------


def ultraspherical_closed_form(p: ShefferParams) -> ClosedFormRecurrence:
    lam, b = p.lam, p.b
    return ClosedFormRecurrence(
        IndexRatio.const(p.a),
        IndexRatio(Poly([b * (2 - lam), b * lam]), Poly([1 - lam, lam]) * Poly([1, lam])),
    )


def ultraspherical_family(p: ShefferParams, order: int, margin: int = FAMILY_MARGIN) -> FamilyResult:
    if p.lam == 0:  # the guard passes at lam = 0
        raise SingularParams("lambda=0", "the deformed family needs invertible 1+lambda*theta")
    nw, core = guarded_core(p, order, margin)
    lam, a, b = p.lam, p.a, p.b
    checks = conjugation_trick_checks(core, lam, order)
    gop = deformed_op(core, p.ratio, 0)
    u, rec, fault = extract_recurrence(gop)
    closed = ultraspherical_closed_form(p)
    checks.append(raising_check("dual raising display", fault, u, closed_form_raising(closed, nw), order))
    # dual derivative display gop^(-1) D gop == F_{theta+1}^(-1) . resolvent(D)
    # . F_theta, where F_{theta+1}^(-1) = (1 + lam theta) F_theta^(-1)
    resolvent = TruncSeries.from_function(
        lambda i: (lam * b) ** (i // 2) if i % 2 == 1 else 0, nw
    )  # y/(1 - lam b y^2)
    expected_d = OpMatrix.diag_op([1 + lam * n for n in range(nw + 1)], nw) @ diag_conj(
        p.ratio.products(nw + 1), OpMatrix.series_of_d(resolvent, nw)
    )
    checks.append(conjugation_check("dual derivative display", gop, OpMatrix.d_op(nw), expected_d, order))
    # boxed mgf: e^{ay} * sum_n prod-ratio terms y^(2n)
    even = [Fraction(0)] * (nw + 1)
    even[::2] = IndexRatio(b, Poly([1, 1]) * Poly([1 + lam, lam])).products(nw // 2 + 1)
    boxed = (exp_series(a, nw) * TruncSeries(even)).truncate(order)
    f0 = mgf_from_gop(gop).truncate(order)
    checks.append(series_check("ultraspherical: mgf pipelines agree", f0, moments_from_recurrence(rec, order).f0))
    checks.append(series_check("boxed mgf", f0, boxed, order))
    # generating function display, column by column:
    # sum_n c_n q_n(x) y^n has x^m coefficient c_m y^m (1+lam a y+lam b y^2)^(-1/lam-m)
    # (coefficient i of amp^alpha reads amp's coefficients <= i alone)
    gen_through = min(order, 8)
    amp = TruncSeries.from_polynomial([1, lam * a, lam * b], gen_through)
    c_vals = IndexRatio(Poly([1, lam]), Poly([1, 1])).products(nw + 1)

    def column(m):
        got = TruncSeries([c_vals[n] * gop.entry(m, n) for n in range(gen_through + 1)])
        expect = (amp.pow_fraction(Fraction(-1) / lam - m) * c_vals[m]).shift_up(m).truncate(gen_through)
        return series_check(f"generating function column {m}", got, expect)

    checks.append(first_failure(
        f"generating function display to order {gen_through}", map(column, range(gen_through + 1))
    ))
    return FamilyResult("ultraspherical", gop, rec, f0, closed, checks)


# -- the factorial-shift deformation ---------------------------------------------------


def hahn_mgf(s, order: int) -> TruncSeries:
    """(1/s)(e^{sx}-1)/(e^x-1), the closed-form mgf of the lam=2, a=1/2 case;
    at s = 0 the numerator is its limit x."""
    s = as_rat(s)
    num = (exp_series(s, order + 1) - 1) / s if s != 0 else TruncSeries.x(order + 1)
    den = exp_series(1, order + 1) - 1
    return num / den


def hahn_closed_form(p: HahnParams) -> ClosedFormRecurrence:
    lam, a, s = p.lam, p.a, p.s
    return ClosedFormRecurrence(
        IndexRatio.const((s - 1) * a),
        IndexRatio(
            Fraction(1, 4) * a * a * Poly([2 - lam, lam]) * Poly([2 + lam * s - lam, lam]) * Poly([s, -1]),
            Poly([1 - lam, lam]) * Poly([1, lam]),
        ),
    )


def hahn_family(p: HahnParams, order: int, margin: int = FAMILY_MARGIN) -> FamilyResult:
    """Shifted-factorial deformation of the ultraspherical family (4b = lam a^2)."""
    nw = order + margin
    p.guard(nw)
    lam, a, s = p.lam, p.a, p.s
    b = lam * a * a / 4
    ultra = ultraspherical_family(ShefferParams(lam, a, b), order, margin)
    svals = affine(s - 1, -1).products(nw + 1)
    # delta = (e^(2 a y) - 1)/(2 a) has the base delta' = 1 + 2 a delta
    c_delta = OpMatrix.umbral_compose_ode(Poly([1, 2 * a]), nw)
    law = diag_conj(svals, ultra.gop)
    gop = c_delta @ law
    u, rec, fault = extract_recurrence(gop)
    checks = list(ultra.checks)
    closed = hahn_closed_form(p)
    checks.append(raising_check("dual raising display", fault, u, closed_form_raising(closed, nw), order))
    # expansion law: coordinates in the shifted-exponential binomial basis,
    # with C_delta^(-1) from the powers of delta/y, against C_delta read off
    # its base
    delta = ((exp_series(2 * a, nw) - 1) / (2 * a)) if a != 0 else TruncSeries.x(nw)
    xi = OpMatrix.umbral_compose_inverse(delta, nw) @ gop
    checks.append(op_check("expansion in binomial basis", xi, law, order))
    f0 = mgf_from_gop(gop).truncate(order)
    checks.append(series_check("hahn: mgf pipelines agree", f0, moments_from_recurrence(rec, order).f0))
    if lam == 2 and a == Fraction(1, 2):
        checks.append(series_check("closed-form mgf", f0, hahn_mgf(s, order), order))
    return FamilyResult("hahn", gop, rec, f0, closed, checks)


# -- the two-parameter deformation ------------------------------------------------------


def jacobi_closed_form(p: JacobiParams) -> ClosedFormRecurrence:
    lam, kappa, beta, a, r = p.lam, p.kappa, p.beta, p.a, p.r
    theta = Poly.theta()
    a_fn = IndexRatio.const(r * a) + IndexRatio(
        (1 - r) * a * Poly([1 - kappa, 2 * kappa]) + (1 - r) * a * lam * kappa * theta * theta,
        Poly([1 - kappa, kappa]) * Poly([1, kappa]),
    )
    bpart = IndexRatio(
        Fraction(1, 4) * lam * a * a * Poly([2, lam])
        * (r * Poly([1, kappa]) + (1 - r) * Poly([1 + lam, lam])),
        Poly([1 + lam, lam]) * Poly([1, kappa]),
    )
    fr = IndexRatio(Poly([1, beta]), Poly([1, lam]) * Poly([1, kappa]))
    b_fn = (bpart * fr).shift(-1)
    return ClosedFormRecurrence(a_fn, b_fn)


def jacobi_split_displays(p: JacobiParams, nw: int, c=0) -> tuple[OpMatrix, OpMatrix]:
    """The lambda-part and kappa-part displays whose mixture with weights r
    and 1-r is the conjugated raising operator shifted by c; m = n + c below."""
    lam, kappa, a = p.lam, p.kappa, p.a
    count = nw + 1
    one_m, two_lam = Poly([1 + c, 1]), Poly([2 + lam * c, lam])  # 1 + m, 2 + lam m
    one_lam, one_kappa = Poly([1 + lam * c, lam]), Poly([1 + kappa * c, kappa])  # 1 + lam m, 1 + kappa m
    coeff = lam * a * a / 4 * two_lam

    def part(one, diagonal, d_den):
        """x (1+m)/((1+theta) one) + diagonal + (coeff/d_den)(theta) D"""
        x_vals, d_vals = IndexRatio(one_m, Poly([1, 1]) * one).values(count), IndexRatio(coeff, d_den).values(count)
        return OpMatrix.banded({1: x_vals, 0: diagonal, -1: d_weights(d_vals)}, nw)

    lam_part = part(one_lam, [a] * count, one_lam + lam)
    # a/2 (2+lam m)/(1+kappa m) + a/2 lam m/(1+kappa(m-1)); the second term is
    # 0 * 0/0 at m = 0, which parameter continuity resolves to 0
    first = IndexRatio(a / 2 * two_lam, one_kappa)
    diag = first + IndexRatio(a / 2 * lam * Poly([c, 1]), one_kappa - kappa)
    return lam_part, part(one_kappa, [first(n) if n + c == 0 else diag(n) for n in range(count)], one_kappa)


def jacobi_mgf_forms(p: JacobiParams, order: int) -> tuple[TruncSeries, TruncSeries]:
    """The two product-form expressions for the moment series: the
    ratio-weighted central-binomial sum and the hypergeometric-style one."""
    lam, kappa, beta, a = p.lam, p.kappa, p.beta, p.a
    # form1_n = F_n/(1 + lam n) binom(x + 2n, n) (lam a/2)^n with x = 2/lam,
    # one product of the ratios of its factors
    x = 2 / lam
    central = IndexRatio(Poly([x + 1, 2]) * Poly([x + 2, 2]), Poly([x + 1, 1]) * Poly([1, 1]))
    weight = IndexRatio(Poly([1, lam]), Poly([1 + lam, lam]))  # (1 + lam n)/(1 + lam (n+1))
    form1 = TruncSeries((p.ratio * weight * central * (lam * a / 2)).products(order + 1))
    # moments with ratio 2a(1 + beta n)/(2 + kappa n)
    form2 = TruncSeries(IndexRatio(Poly([2 * a, 2 * a * beta]), Poly([2, kappa])).products(order + 1)).borel()
    return form1, form2


def jacobi_dual_raising(p: JacobiParams, nw: int) -> OpMatrix:
    """x + a_theta + D b_theta from the closed form; the index-0 value of
    a_theta is a by parameter continuity (the display is 0/0 there when
    kappa=1)."""
    return closed_form_raising(jacobi_closed_form(p), nw, a0=p.a)


def jacobi_family(p: JacobiParams, order: int, margin: int = FAMILY_MARGIN) -> FamilyResult:
    nw, core = guarded_core(p, order, margin)
    checks = conjugation_trick_checks(core, p.lam, order)
    checks += conjugation_trick_checks(core, p.kappa, order)
    gop = deformed_op(core, p.ratio, 0)
    u, rec, fault = extract_recurrence(gop)
    checks.append(raising_check("dual raising closed form", fault, u, jacobi_dual_raising(p, nw), order))
    # affine split of inner^(-1) x (F_{theta+1}/F_theta) inner, crossed: t inner == inner split
    lam_part, kappa_part = jacobi_split_displays(p, nw)
    split = lam_part.scale(p.r) + kappa_part.scale(1 - p.r)
    t = x_times(p.ratio.values(nw + 1), nw)
    checks.append(conjugation_check("three-term split", core.inner(), t, split, order))
    f0 = mgf_from_gop(gop).truncate(order)
    checks.append(series_check("jacobi: mgf pipelines agree", f0, moments_from_recurrence(rec, order).f0))
    form1, form2 = jacobi_mgf_forms(p, order)
    checks.append(series_check("mgf ratio-sum form", f0, form1, order))
    checks.append(series_check("mgf product form", f0, form2, order))
    return FamilyResult("jacobi", gop, rec, f0, jacobi_closed_form(p), checks)


def jacobi_diffeq_op(p: JacobiParams, order: int, margin: int = FAMILY_MARGIN):
    """(1 + lam theta)^2 conjugated by the family operator: the closed form
    (1+lam theta)^2 - (2 a lam^2/kappa)(1+beta theta) D, checked crossed as
    rhs gop == gop (1+lam theta)^2, and its eigen-action on gop's columns.
    Returns the closed form, the family operator and the checks."""
    nw, core = guarded_core(p, order, margin)
    lam, kappa, beta, a = p.lam, p.kappa, p.beta, p.a
    gop = deformed_op(core, p.ratio, 0)
    sq = OpMatrix.diag_op([(1 + lam * n) ** 2 for n in range(nw + 1)], nw)
    rhs = sq - coeff_then_d([2 * a * lam * lam / kappa * (1 + beta * n) for n in range(nw + 1)], nw)
    checks = [conjugation_check("second-order operator closed form", gop, rhs, sq, order)]
    columns = (gop.column_poly(n) for n in range(min(order, gop.reliable) + 1))
    checks.append(first_failure("eigen-action", (
        flag_check("eigen-action", rhs.apply_poly(q) == (1 + lam * n) ** 2 * q, f"column {n}")
        for n, q in enumerate(columns)
    )))
    # omega'(y)^(-2) = 1 - 2 lam a y
    w = 1 / core.omega_prime
    checks.append(
        series_check("omega derivative closed form", w * w, TruncSeries.from_polynomial([1, -2 * lam * a], nw - 1))
    )
    return rhs, gop, checks


# -- the mixed deformation ---------------------------------------------------------------


def wilson_family(p: WilsonParams, order: int, margin: int = FAMILY_MARGIN) -> FamilyResult:
    nw, core = guarded_core(p, order, margin)
    checks = conjugation_trick_checks(core, p.lam, order)
    c2 = OpMatrix.shifted_product(p.ells(nw), nw)
    gop = wilson_op(core, p, c2)
    _, rec, fault = extract_recurrence(gop)
    checks.append(flag_check("raising operator tridiagonal", not fault, fault))
    # bracket identity H C2^(-1) x C2 H^(-1) == display, crossed: x C2 == C2 H^(-1) display H
    display = OpMatrix.banded({1: p.mixing_ratio.values(nw + 1), 0: [-v for v in p.ells(nw + 1)]}, nw)
    hvals = p.mixing_ratio.products(nw + 1)
    checks.append(conjugation_check("bracket identity", c2, OpMatrix.x_op(nw), diag_conj(hvals, display), order))
    f0 = mgf_from_gop(gop).truncate(order)
    checks.append(series_check("wilson: mgf pipelines agree", f0, moments_from_recurrence(rec, order).f0))
    if p.h == 0:
        checks.append(op_check("h=0 reduction", gop, deformed_op(core, JacobiParams(p.lam, p.a, p.rt).ratio, 0), order))
    return FamilyResult("wilson", gop, rec, f0, None, checks)


# -- the higher-order generalization --------------------------------------------------------


def multiterm_family(p: MultiTermParams, order: int, margin: int = FAMILY_MARGIN) -> FamilyResult:
    nw = order + margin
    p.guard(nw)
    n, lam, a = p.n, p.lam, p.a
    psi = Poly([math.comb(n, j) * (lam * a / n) ** j for j in range(n + 1)])  # (1 + lam a y/n)^n
    core = sheffer_core(solve_autonomous_ode(psi.coeffs, nw), psi, lam, nw)
    checks = conjugation_trick_checks(core, lam, order)
    inner = deformed_op(core, p.ratio, 0)
    if p.extended:
        cconst = -p.t[n] * lam * a * Fraction(n ** (n - 1), (n - 1) ** (n - 1))
        # delta = (e^(cconst y) - 1)/cconst has the base delta' = 1 + cconst delta
        gop = OpMatrix.umbral_compose_ode(Poly([1, cconst]), nw) @ inner
    else:
        gop = inner
    u = conjugate(gop, OpMatrix.x_op(nw))
    band, down = u.band_profile(order), n - 1 if a else 0  # at a = 0, f = y: the monomials
    fault = u.band_fault(down, order)
    # an (n+1)-term family has no three-term recurrence to read: a stand-in
    at, bt = u.three_term(order)[:2] if down <= 1 else ([0], [])
    rec = Recurrence(tuple(at), tuple(bt))
    checks.append(flag_check(f"band profile (1,{down})", band == (1, down) and not fault, fault or f"got {band}"))
    # algebraic relation for the inverse transform:
    # (1 - 1/omega')(1/omega' + n - 1)^(n-1) = n^(n-1) lam a y
    w = 1 / core.omega_prime
    rel = (1 - w)
    powterm = w + (n - 1)
    acc = rel
    for _ in range(n - 1):
        acc = (acc * powterm).truncate(w.order)
    target = TruncSeries.from_polynomial([0, Fraction(n ** (n - 1)) * lam * a], w.order)
    checks.append(series_check("omega algebraic relation", acc, target, min(order, w.order)))
    # P(y) = (n-1)^(n-1) + (y-1)(y+n-1)^(n-1): P(0) = 0 and P(1/omega') closed form
    poly = Poly([-1, 1])
    for _ in range(n - 1):
        poly = poly * Poly([n - 1, 1])
    poly = poly + (n - 1) ** (n - 1)
    checks.append(value_check("P(0) = 0", poly(0), Fraction(0)))
    checks.append(
        series_check(
            "P(1/omega') closed form",
            poly(w),
            TruncSeries.from_polynomial(
                [Fraction((n - 1) ** (n - 1)), -Fraction(n ** (n - 1)) * lam * a], w.order
            ),
        )
    )
    f0 = mgf_from_gop(gop)
    return FamilyResult("multiterm", gop, rec, f0, None, checks)


# -- generator band probes ---------------------------------------------------------------


def comment_generator_bands(p: JacobiParams, order: int, margin: int = FAMILY_MARGIN):
    """Band profiles of the established generators, which must be tridiagonal
    after conjugation by the inner operator: rows (name, band, ok)."""
    nw, core = guarded_core(p, order, margin)
    lam, kappa, a = p.lam, p.kappa, p.a
    count = nw + 1
    established = {
        "x/(1+lam theta)": x_times(IndexRatio(1, Poly([1, lam])).values(count), nw),
        "x/(1+kappa theta)": x_times(IndexRatio(1, Poly([1, kappa])).values(count), nw),
        "x - 2 lam a theta": OpMatrix.banded({1: [1] * count, 0: affine(0, -2 * lam * a).values(count)}, nw),
        "x(1+lam theta) - lam a(2-lam+2 lam theta)theta": OpMatrix.banded({
            1: affine(1, lam).values(count),
            0: IndexRatio(-a * lam * Poly([0, 2 - lam, 2 * lam])).values(count),
        }, nw),
    }
    inner = core.inner()
    bands = {name: conjugate(inner, t).band_profile(order) for name, t in established.items()}
    return [(name, (up, down), up <= 1 and down <= 1) for name, (up, down) in bands.items()]
