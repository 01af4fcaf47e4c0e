"""Associated (index-shifted) deformations and their explicit operators.

The long division lemma diagonalizes (H_{theta+1}/H_theta) L - t ell(y) delta
by a multiplication conjugation; chaining it with the composition tricks of
the base families yields explicit operators for the associated Sheffer,
ultraspherical, Jacobi and Wilson families, each verified here against the
recurrence shift it is supposed to produce and against the independent
continued-fraction-tail pipeline for integer shift orders.  An associated
deformation is the deformation at shift c, ell(L) W^(-1) inner(c) W
(`shifted_op`): `families.deformed_op` over the record's ratio, and one
psi-read ell (`shifted_ell`); Wilson puts C2(c) in between.  The base
family's operator, where a check needs it, comes from its operator function
over the same core, not from the base family's builder.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .checks import Check, conjugation_check, first_failure, flag_check, op_check, series_check
from .errors import SingularParams
from .families import (
    FAMILY_MARGIN,
    JacobiParams,
    ShefferCore,
    ShefferParams,
    WilsonParams,
    closed_form_raising,
    coeff_then_d,
    deformed_op,
    extract_recurrence,
    generating_function_check,
    guarded_core,
    jacobi_closed_form,
    jacobi_split_displays,
    linear_guard,
    poch_over_fact,
    raising_check,
    sheffer_closed_form,
    sheffer_core,  # re-exported: bench/test_bench.py reads the traced name here
    sheffer_op,
    ultraspherical_closed_form,
    x_times,
)
from .indexfn import IndexRatio, Poly, affine
from .opalg import OpMatrix, mgf_from_gop
from .orthocore import Recurrence, moment_depth, moments_from_recurrence
from .series import TruncSeries, as_rat, riccati_series  # riccati_series: read here by bench/test_bench.py


def guard_shift(c, nw: int):
    c = as_rat(c)
    if c.denominator == 1 and -nw <= c <= -1:
        raise SingularParams("c+k", f"k={-c}")
    return c


def guard_tail_shift(c, order: int):
    """guard_shift at the working order nw, then the reach of the tail
    pipeline: the base recurrence reaches depth nw - 1, its shift by c depth
    nw - 1 - c, and the moments through `order` need moment_depth(order), so
    an integer c >= 0 past order + 3 - order // 2 is refused before any work."""
    nw = order + FAMILY_MARGIN
    c = guard_shift(c, nw)
    top = nw - 1 - moment_depth(order)
    if _tail_shift(c) and c > top:
        raise ValueError(f"--c: an integer shift must be at most {top} at order {order}, "
                         f"the depth the tail mgf can read")
    return c


def series_l(s: TruncSeries) -> TruncSeries:
    """The 0-derivative on the series side: drop the constant, shift down."""
    return TruncSeries(s.coeffs[1:]) if s.order >= 1 else TruncSeries.zero(0)


# -- long division lemma -----------------------------------------------------------


def long_division_checks(h_ratio: IndexRatio, b_series: TruncSeries, order: int) -> list:
    """All displayed forms of the long division lemma, verified exactly.

    h_ratio gives H_{theta+1}/H_theta; b_series must have constant term 1.
    """
    nw = order + FAMILY_MARGIN
    checks = []
    hvals = h_ratio.products(nw + 2)
    ratio_vals = [h_ratio(n) for n in range(nw + 1)]
    if any(v == 0 for v in hvals):
        raise SingularParams("H_theta", "sequence not invertible")
    b = b_series.truncate(nw) if b_series.order >= nw else None
    if b is None:
        raise SingularParams("B", "series too short for the working order")
    hb = b.weighted(hvals[: nw + 1])

    def mult_l_div(series_in, w):
        """w . L . w^(-1) applied to a series (multiplication conjugation)."""
        return (series_l(series_in / w) * w).truncate(series_in.order - 1)

    cols = [TruncSeries.from_polynomial([0] * j + [1], nw) for j in range(order + 1)]
    h_inv = h_ratio.reciprocal().products(nw + 1)

    def diagonalized(col, w):
        """H^(-1) w L w^(-1) H applied to col."""
        return mult_l_div(col.weighted(hvals), w).weighted(h_inv)

    # (1) H^(-1) (H.B) L (H.B)^(-1) H == (H_{theta+1}/H_theta) B L B^(-1), column by column
    name = "series-side diagonalization"
    checks.append(first_failure(name, (
        flag_check(
            name,
            diagonalized(col, hb).agrees_with(mult_l_div(col, b).weighted(ratio_vals), order - 1),
            f"column {j}",
        )
        for j, col in enumerate(cols)
    )))

    # factored form: (H_{theta+1}/H_theta) L - t (H_0-normalized ell) delta
    #   == H^(-1) (1 + t y (H.ell)) L (1 + t y (H.ell))^(-1) H, here with ell = B
    def resolvent_cases(name):
        for t in (Fraction(1), Fraction(2, 3)):
            w = (1 + (t * hb.shift_up(1)).truncate(nw)).truncate(nw)
            for j, col in enumerate(cols):
                direct = series_l(col).weighted(ratio_vals) - ((t * b) * col.coeffs[0]).truncate(nw - 1)
                ok = diagonalized(col, w).agrees_with(direct, order - 1)
                yield flag_check(name, ok, f"t={t}, column {j}")

    name = "factored resolvent form"
    checks.append(first_failure(name, resolvent_cases(name)))

    # (2) polynomial-domain version with ell(D) in place of multiplication;
    # D is nilpotent on the truncated space, so ell(D)^(-1) = (1/ell)(D) exactly
    x_over = x_times([Fraction(1, 1 + n) for n in range(nw + 1)], nw)

    def conj(ell):
        """ell(D)^(-1) x_over ell(D)."""
        return OpMatrix.series_of_d(1 / ell, nw)._compared(x_over)._compared(OpMatrix.series_of_d(ell, nw))

    lhs_op = conj(b)._compared(OpMatrix.diag_op(ratio_vals, nw))
    rhs_op = conj(hb).diag_conj(h_ratio.reciprocal().ratios(nw))  # H . (...) . H^(-1)
    checks.append(op_check("polynomial-domain form", lhs_op, rhs_op, order))
    return checks


def change_of_variable_check(f: TruncSeries, order: int) -> Check:
    """C_f x (1+theta)^(-1) C_f^(-1) == x (1+theta)^(-1) (D/f(D)), compared
    crossed as C_f x (1+theta)^(-1) == x (1+theta)^(-1) (D/f(D)) C_f, then
    column m of bar(C_f) against reverse(f)^m."""
    nw = order + FAMILY_MARGIN
    cf = OpMatrix.umbral_compose(f, nw)
    x_over = x_times([Fraction(1, 1 + n) for n in range(nw + 1)], nw)
    y_over_f = f.y_over_f().truncate(nw - 1)
    rhs = x_over @ OpMatrix.series_of_d(TruncSeries.from_polynomial(list(y_over_f.coeffs), nw), nw)
    name = "change-of-variable form"
    return first_failure(name, (
        conjugation_check(name, cf, rhs, x_over, order - 1),
        generating_function_check(name, cf.bar(), TruncSeries.one(nw), f.reverse(), order),  # covers umbral_compose
    ))


# -- associated result record ----------------------------------------------------------


@dataclass
class AssocResult:
    name: str
    c: Fraction
    gop: OpMatrix
    recurrence: Recurrence
    mgf: TruncSeries
    checks: list = field(default_factory=list)
    pipelines: dict = field(default_factory=dict)  # the mgf by other routes, keyed by route

    def to_json(self, upto: Optional[int] = None) -> dict:
        upto = self.gop.reliable if upto is None else min(upto, self.gop.reliable)
        return {
            "name": self.name,
            "c": str(self.c),
            "order": upto,
            "recurrence": self.recurrence.to_json(),
            "f0": self.mgf.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }


def _tail_shift(c: Fraction) -> bool:
    """Whether the tail pipeline covers the shift c: an integer c >= 0."""
    return c.denominator == 1 and c >= 0


def _assoc_result(name, prefix, c, gop, rec, f0, checks: list, order: int, base=None) -> AssocResult:
    """The result of an associated build: its checks, then the explicit mgf
    f0 against the extracted recurrence's own moments and, for tail shifts
    over a base operator, against the tails of the recurrence read off it,
    the moments of its shift by c; a fault of that reading fails the tail
    check, and no tails are read.  `pipelines` holds the mgf of each route."""
    pipelines = {"recurrence": moments_from_recurrence(rec, order).f0}
    checks = checks + [series_check(f"{prefix}explicit vs extracted-recurrence mgf", f0, pipelines["recurrence"])]
    if base is not None and _tail_shift(c):
        _, base_rec, fault = extract_recurrence(base)
        tail_name = f"{prefix}explicit vs tail mgf"
        if fault:
            checks.append(flag_check(tail_name, False, fault))
        else:
            pipelines["tails"] = moments_from_recurrence(base_rec.shift(int(c)), order).f0
            checks.append(series_check(tail_name, f0, pipelines["tails"]))
    return AssocResult(name, c, gop, rec, f0, checks, pipelines)


def shifted_ell(core: ShefferCore, tilde: IndexRatio, c) -> TruncSeries:
    """ell of the family over the ratio tilde(m)/(1+lam m) associated at c:
    G_alpha, alpha = c-1+1/lam, weighted by (c)_theta prod_{k<theta}
    tilde(c-1+k)/(1+lam(c+k)).  By the omega'-cancellation identity that is
    f'(omega)^alpha (c)_theta F_{c-1+theta}/F_{c-1} with 1+lam(c-1)
    cancelled, regular where it is 0.  At c = 0 it is 1 (no tilde(-1))."""
    if c == 0:
        return TruncSeries.one(core.nw)
    lam = core.lam
    weight = IndexRatio(Poly([1, 1]) * tilde.num, tilde.den * Poly([1 + lam, lam]))  # at m = c-1+k
    return core.diagonal(c - 1 + 1 / lam).weighted(weight.products(core.nw + 1, c - 1))


def shifted_op(core: ShefferCore, p, c, op: Optional[OpMatrix] = None) -> OpMatrix:
    """ell(L) W^(-1) inner(c) W, the family over p's ratio associated at c;
    W first, so a pole of the ratio is reported by W.  `op`, when given, is
    that W^(-1) inner(c) W, already built."""
    op = deformed_op(core, p.ratio, c) if op is None else op
    return OpMatrix.series_of_l(shifted_ell(core, p.tilde, c), core.nw) @ op


# -- associated Sheffer -------------------------------------------------------------------


def sheffer_assoc(p: ShefferParams, c, order: int) -> AssocResult:
    c = guard_tail_shift(c, order)
    nw, core = guarded_core(p, order)
    base = sheffer_op(core)
    y_over_f = core.fprime.integral().y_over_f().truncate(nw)  # f to nw + 1 from f' = psi(f)
    fprime_pow = core.fprime.pow_fraction(Fraction(1) / p.lam)
    ell = (fprime_pow * y_over_f.pow_fraction(1 - c)).truncate(nw)
    hvals = affine(c, 1).products(nw + 1)  # (c)_theta
    x = OpMatrix.series_of_d(y_over_f.pow_fraction(c), nw) @ base
    gop = OpMatrix.series_of_l(ell.weighted(hvals), nw) @ x.diag_conj(poch_over_fact(c).ratios(nw))
    u, rec, fault = extract_recurrence(gop, order)
    display = closed_form_raising(sheffer_closed_form(p).assoc(c), nw)
    checks = [raising_check("shifted dual raising display", fault, u, display, order)]
    # displayed mgf: the ratio of the two weighted series
    num = (fprime_pow * y_over_f.pow_fraction(-c)).truncate(nw)
    f0_formula = (num.weighted(affine(c + 1, 1).products(nw + 1)) / ell.weighted(hvals)).borel()
    f0 = mgf_from_gop(gop).truncate(order)
    checks.append(series_check("displayed mgf formula", f0, f0_formula, order))
    if c == 0:
        checks.append(op_check("c=0 reduction", gop, base, order))
    return _assoc_result("sheffer", "sheffer assoc: ", c, gop, rec, f0, checks, order, base)


# -- associated ultraspherical ----------------------------------------------------------------


def ultra_assoc(p: ShefferParams, c, order: int) -> AssocResult:
    c = guard_tail_shift(c, order)
    nw, core = guarded_core(p, order)
    lam = p.lam
    linear_guard([("1+lambda*(c+k)", 1 + lam * c, lam)], nw + 2)
    base = deformed_op(core, p.ratio, 0) if _tail_shift(c) else None
    gop = shifted_op(core, p, c, base if c == 0 else None)
    u, rec, fault = extract_recurrence(gop, order)
    display = closed_form_raising(ultraspherical_closed_form(p).assoc(c), nw)
    checks = [raising_check("shifted dual raising display", fault, u, display, order)]  # covers inner(c), read off psi
    if c == 0:
        checks.append(op_check("c=0 reduction", gop, base, order))
    f0 = mgf_from_gop(gop).truncate(order)
    return _assoc_result("ultraspherical", "ultraspherical assoc: ", c, gop, rec, f0, checks, order, base)


# -- associated Jacobi ------------------------------------------------------------------------


def hyp2f1_scaled(a1, beta_term, c1, z, order: int, c_shift) -> TruncSeries:
    """2F1-type series with the 1/beta parameter folded into the argument:
    term ratio (a1+n)(1 + beta (c_shift+n)) z / ((c1+n)(n+1))."""
    a1, c1, z, c_shift = as_rat(a1), as_rat(c1), as_rat(z), as_rat(c_shift)
    beta_term = as_rat(beta_term)
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for n in range(order):
        if a1 + n == 0:
            term = Fraction(0)
        else:
            den = (c1 + n) * (n + 1)
            if den == 0:
                raise SingularParams("2F1 lower parameter", f"pole at n={n}")
            term = term * (a1 + n) * (1 + beta_term * (c_shift + n)) * z / den
        coeffs.append(term)
    return TruncSeries(coeffs)


def jacobi_assoc_mgf_forms(p: JacobiParams, c, order: int, core: ShefferCore) -> tuple[TruncSeries, TruncSeries]:
    """Moment-series of the shifted family: the ratio of weighted series and
    the ratio of two hypergeometric truncations, both built from products."""
    kappa, beta, a = p.kappa, p.beta, p.a
    c = as_rat(c)
    top, bot = shifted_ell(core, p.tilde, c + 1), shifted_ell(core, p.tilde, c)
    weighted_form = (top / bot).truncate(order)
    # hypergeometric quotient: both series share the argument 2 beta a y / kappa,
    # written so that beta = 0 stays regular
    z = 2 * a / kappa
    upper = hyp2f1_scaled(c + 1, beta, 2 * c + 2 / kappa, z, order, c)
    lower = hyp2f1_scaled(c, beta, 2 * c - 2 + 2 / kappa, z, order, c - 1)
    hyper_form = (upper / lower).truncate(order)
    return weighted_form, hyper_form


def jacobi_assoc(p: JacobiParams, c, order: int) -> AssocResult:
    c = guard_tail_shift(c, order)
    nw, core = guarded_core(p, order)
    lam = p.lam
    base = deformed_op(core, p.ratio, 0) if _tail_shift(c) else None
    gop = shifted_op(core, p, c, base if c == 0 else None)
    u, rec, fault = extract_recurrence(gop, order)
    if c != 0:
        display = closed_form_raising(jacobi_closed_form(p).assoc(c), nw)
        checks = [raising_check("shifted dual raising display", fault, u, display, order)]  # covers inner(c)
    else:
        checks = [raising_check("c=0 reduction", fault, gop, base, order)]
    # omega'-cancellation display: (1+lam(theta+c-1)) . f'(omega)^(c-1+1/lam)
    #   = (1+lam(c-1)) omega' f'(omega)^(c-1+1/lam), with theta acting as y d/dy
    g = core.fprime_omega_pow(c - 1 + Fraction(1) / lam)
    theta_g = g.derivative().shift_up(1).truncate(g.order)
    lhs_series = ((1 + lam * (c - 1)) * g + lam * theta_g).truncate(g.order - 1)
    rhs_series = ((1 + lam * (c - 1)) * core.omega_prime * g).truncate(g.order - 1)
    checks.append(series_check("omega'-cancellation display", lhs_series, rhs_series, order))
    f0 = mgf_from_gop(gop).truncate(order)
    weighted_form, hyper_form = jacobi_assoc_mgf_forms(p, c, order, core)
    moment_form = f0.laplace()
    checks.append(series_check("weighted-series mgf formula", moment_form, weighted_form, order))
    checks.append(series_check("hypergeometric quotient mgf", moment_form, hyper_form, order))
    return _assoc_result("jacobi", "jacobi assoc: ", c, gop, rec, f0, checks, order, base)


# -- splitting of the shifted operator ------------------------------------------------------


def splitting_check(p: JacobiParams, c, order: int) -> list:
    """The conjugated shifted raising operator splits into the lambda-part
    and kappa-part displays with weights r and 1-r."""
    nw = order + FAMILY_MARGIN
    c = guard_shift(c, nw)
    p.guard(nw)
    # at c = 0, a_theta at index 0 is a by parameter continuity (0/0 there when kappa = 1)
    u_c = closed_form_raising(jacobi_closed_form(p).assoc(c), nw, a0=p.a if c == 0 else None)
    # W . u_c . W^(-1) for W = F_{c+theta}/F_c (c+1)_theta/theta!
    lhs = u_c.diag_conj((p.ratio.shift(c) * poch_over_fact(c)).reciprocal().ratios(nw))
    lam_part, kappa_part = jacobi_split_displays(p, nw, c)
    rhs = lam_part.scale(p.r) + kappa_part.scale(1 - p.r)
    return [op_check(f"split of the shifted operator (c={c})", lhs, rhs, order)]


# -- associated Wilson -------------------------------------------------------------------------


def newton_expansion(s: TruncSeries, ells: Sequence) -> TruncSeries:
    """theta! bar(C2^(-1)) theta!^(-1) s for C2: x^n -> prod_{k<n} (x + ells[k]),
    i.e. s through the transpose of C2^(-1), the Newton-basis expansion of x^n
    (generalized Stirling numbers of the second kind, Comtet 1974).  Its column a
    is y^a / prod_{k<=a} (1 + y ells[k]); by Horner, acc <- (s_a + y acc)/(1 + y ells[a])."""
    m = s.order
    acc = TruncSeries.zero(m)
    for a in range(m, -1, -1):
        acc = (acc.shift_up(1).truncate(m) + s.coefficient(a)) / TruncSeries.from_polynomial([1, ells[a]], m)
    return acc


def wilson_assoc(p: WilsonParams, c, order: int) -> AssocResult:
    c = guard_shift(c, order + FAMILY_MARGIN)
    nw, core = guarded_core(p, order)
    lam, kappa, a = p.lam, p.kappa, p.a
    op = deformed_op(core, p.ratio, c)  # before ell: a pole of the ratio is reported here
    ells = p.ells(nw + 1, c)
    c2c = OpMatrix.shifted_product(ells, nw)
    # s(c, y) = 1 + y * theta! bar(C2(c)^(-1)) theta!^(-1) L ell over the mixing ratio
    lowered = series_l(shifted_ell(core, p.tilde, c))
    staged = newton_expansion(lowered, ells)
    s_series = (1 + staged.shift_up(1)).truncate(nw)
    gop = OpMatrix.series_of_l(s_series, nw) @ c2c @ op
    _, rec, fault = extract_recurrence(gop, order)
    checks = [flag_check("shifted raising operator tridiagonal", not fault, fault)]
    # the expansion crossed, C2^T staged == lowered in integers: with column a of
    # C2 = N_a/d_a, sum_b N_a[b] staged_b = d_a lowered_a.  C2^T is unit triangular,
    # so this pins every staged coefficient in gop, also those past `order`
    name = "column factorization of the shift operator"
    crossed = (
        sum(x * y for x, y in zip(col.nums, staged.nums)) * lowered.den - lowered.nums[a] * col.den * staged.den
        for a, col in enumerate(map(c2c.column_poly, range(lowered.order + 1)))
    )
    checks.append(first_failure(name, (flag_check(name, not d, f"column {a}") for a, d in enumerate(crossed))))
    # conjugated square identity inner sq inner^(-1) == display, compared crossed
    # as display inner == inner sq; it covers inner(c), read off psi
    sq = OpMatrix.diag_op([(1 + lam * (n + c)) ** 2 for n in range(nw + 1)], nw)
    display = sq - coeff_then_d(
        [2 * a * lam * lam / kappa * (1 + lam * (n + c)) * (1 + kappa * (n + c)) for n in range(nw + 1)],
        nw,
    )
    checks.append(conjugation_check("conjugated square identity", core.inner(c), display, sq, order))
    if c == 0:
        checks.append(op_check("c=0 reduction", gop, c2c._compared(op), order))  # wilson_op, with op at c = 0
    if p.h == 0:
        checks.append(op_check("h=0 reduction", gop, shifted_op(core, JacobiParams(p.lam, p.a, p.rt), c), order))
    return _assoc_result("wilson", "", c, gop, rec, mgf_from_gop(gop).truncate(order), checks, order)
