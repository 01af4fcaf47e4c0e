"""Associated (index-shifted) deformations and their explicit operators.

The long division lemma diagonalizes (H_{theta+1}/H_theta) L - t ell(y) delta
by a multiplication conjugation; chaining it with the composition tricks of
the base families yields explicit operators for the associated Sheffer,
ultraspherical, Jacobi and Wilson families, each verified here against the
recurrence shift it is supposed to produce and against the independent
continued-fraction-tail pipeline for integer shift orders.  The base
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
    diag_conj,
    extract_recurrence,
    guarded_core,
    jacobi_closed_form,
    jacobi_dual_raising,
    jacobi_split_displays,
    linear_guard,
    mgf_pipeline_checks,
    sheffer_closed_form,
    sheffer_core,  # re-exported: bench/test_bench.py reads the traced name here
    sheffer_op,
    ultraspherical_closed_form,
    wilson_factors,
    wilson_op,
    x_times,
)
from .indexfn import IndexRatio, Poly, affine
from .opalg import OpMatrix, mgf_from_gop
from .orthocore import Recurrence
from .series import TruncSeries, as_rat, riccati_series, t_and_omega

ASSOC_MARGIN = 8


def guard_shift(c, nw: int):
    c = as_rat(c)
    if c.denominator == 1 and -nw <= c <= -1:
        raise SingularParams("c+k", f"k={-c}")
    return c


def lowered_weights(ratio: IndexRatio, c, count: int) -> tuple:
    """(c)_theta prod_{j<theta} ratio(c-1+j): the shift to c-1 of a quotient
    sequence, weighted by the rising factorial H_theta = (c)_theta.  At c = 0
    that factor vanishes past theta = 0, so ratio(-1) is never evaluated."""
    if c == 0:
        return (Fraction(1),) + (Fraction(0),) * (count - 1)
    return (ratio * affine(1, 1)).products(count, c - 1)


def poch_over_fact(c) -> IndexRatio:
    """(c+1+theta)/(1+theta), the ratio of the sequence (c+1)_theta/theta!."""
    return IndexRatio(Poly([c + 1, 1]), Poly([1, 1]))


def factorial_conj(op: OpMatrix) -> OpMatrix:
    """theta! . op . theta!^(-1)."""
    return diag_conj(IndexRatio(1, Poly([1, 1])).products(op.nw + 1), op)


def series_l(s: TruncSeries) -> TruncSeries:
    """The 0-derivative on the series side: drop the constant, shift down."""
    return TruncSeries(s.coeffs[1:]) if s.order >= 1 else TruncSeries.zero(0)


# -- long division lemma -----------------------------------------------------------


def long_division_checks(
    h_ratio: IndexRatio,
    b_series: TruncSeries,
    order: int,
    t_samples: Sequence = (Fraction(1), Fraction(2, 3)),
    margin: int = FAMILY_MARGIN,
) -> list:
    """All displayed forms of the long division lemma, verified exactly.

    h_ratio gives H_{theta+1}/H_theta; b_series must have constant term 1.
    """
    nw = order + margin
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
        for t in map(as_rat, t_samples):
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
        return OpMatrix.series_of_d(1 / ell, nw) @ x_over @ OpMatrix.series_of_d(ell, nw)

    lhs_op = conj(b) @ OpMatrix.diag_op(ratio_vals, nw)
    rhs_op = diag_conj(h_inv, conj(hb))  # H . (...) . H^(-1)
    checks.append(op_check("polynomial-domain form", lhs_op, rhs_op, order))
    return checks


def change_of_variable_check(f: TruncSeries, order: int, margin: int = FAMILY_MARGIN) -> Check:
    """C_f x (1+theta)^(-1) C_f^(-1) == x (1+theta)^(-1) (D/f(D)), compared
    crossed as C_f x (1+theta)^(-1) == x (1+theta)^(-1) (D/f(D)) C_f."""
    nw = order + margin
    cf = OpMatrix.umbral_compose(f, nw)
    x_over = x_times([Fraction(1, 1 + n) for n in range(nw + 1)], nw)
    y_over_f = (1 / f.shift_down(1)).truncate(nw - 1)
    rhs = x_over @ OpMatrix.series_of_d(TruncSeries.from_polynomial(list(y_over_f.coeffs), nw), nw)
    return conjugation_check("change-of-variable form", cf, rhs, x_over, order - 1)


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
    over a base operator, against the tails of the recurrence read off it."""
    tails = (extract_recurrence(base)[1], int(c)) if base is not None and _tail_shift(c) else None
    names = (f"{prefix}explicit vs extracted-recurrence mgf", f"{prefix}explicit vs tail mgf")
    pipe, pipelines = mgf_pipeline_checks(names, f0, rec, min(order, 10), tails)
    return AssocResult(name, c, gop, rec, f0, checks + pipe, pipelines)


def factorial_conj_op(ell: TruncSeries, x: OpMatrix, c) -> OpMatrix:
    """theta! ell(D) (c+1)_theta^(-1) X (c+1)_theta theta!^(-1): the shape of
    the associated Sheffer, ultraspherical and Jacobi operators."""
    nw = x.nw
    return factorial_conj(OpMatrix.series_of_d(ell, nw)) @ diag_conj(poch_over_fact(c).products(nw + 1), x)


# -- associated Sheffer -------------------------------------------------------------------


def sheffer_assoc(p: ShefferParams, c, order: int, margin: int = ASSOC_MARGIN) -> AssocResult:
    c = guard_shift(c, order + margin)
    if p.lam == 0:  # the guard passes at lam = 0
        raise SingularParams("lambda=0", "the explicit shifted operator needs 1/lambda powers")
    nw, core = guarded_core(p, order, margin)
    lam, a, b = p.lam, p.a, p.b
    base = sheffer_op(core)
    y_over_f = (1 / riccati_series(lam, a, b, nw + 1).shift_down(1)).truncate(nw)
    fprime_pow = core.fprime.pow_fraction(Fraction(1) / lam)
    ell = (fprime_pow * y_over_f.pow_fraction(1 - c)).truncate(nw)
    hvals = affine(c, 1).products(nw + 1)  # (c)_theta
    gop = factorial_conj_op(ell.weighted(hvals), OpMatrix.series_of_d(y_over_f.pow_fraction(c), nw) @ base, c)
    u, rec = extract_recurrence(gop, order)
    display = closed_form_raising(sheffer_closed_form(p).assoc(c), nw)
    checks = [op_check("shifted dual raising display", u, display, order)]
    # displayed mgf: the ratio of the two weighted series
    num = (fprime_pow * y_over_f.pow_fraction(-c)).truncate(nw)
    f0_formula = (num.weighted(affine(c + 1, 1).products(nw + 1)) / ell.weighted(hvals)).borel()
    f0 = mgf_from_gop(gop).truncate(order)
    checks.append(series_check("displayed mgf formula", f0, f0_formula, order))
    if c == 0:
        checks.append(op_check("c=0 reduction", gop, base, order))
    return _assoc_result("sheffer", "sheffer assoc: ", c, gop, rec, f0, checks, order, base)


# -- associated ultraspherical ----------------------------------------------------------------


def ultra_assoc(p: ShefferParams, c, order: int, margin: int = ASSOC_MARGIN) -> AssocResult:
    c = guard_shift(c, order + margin)
    if p.lam == 0:  # the guard passes at lam = 0
        raise SingularParams("lambda=0", "deformation undefined")
    nw, core = guarded_core(p, order, margin)
    lam, a, b = p.lam, p.a, p.b
    linear_guard([("1+lambda*(c+k)", 1 + lam * c, lam)], nw + 2)
    base = deformed_op(core, p.ratio) if _tail_shift(c) else None
    omega = t_and_omega(riccati_series(lam, a, b, nw + 1))[1]  # one order above the working block
    ell = (omega.derivative() * core.fprime_omega_pow(c + Fraction(1) / lam - 1)).truncate(nw)
    fvals = p.ratio.products(nw + 1, c)
    weights = (affine(0, 1) * p.ratio).products(nw + 1, c)  # (c)_theta F_{c+theta}/F_c
    gop = factorial_conj_op(ell.weighted(weights), diag_conj(fvals, core.inner(c)), c)
    u, rec = extract_recurrence(gop, order)
    display = closed_form_raising(ultraspherical_closed_form(p).assoc(c), nw)
    checks = [op_check("shifted dual raising display", u, display, order)]
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
    lam, kappa, beta, a = p.lam, p.kappa, p.beta, p.a
    c = as_rat(c)
    nw = core.nw
    top = core.fprime_omega_pow(c + Fraction(1) / lam).weighted((affine(1, 1) * p.ratio).products(nw + 1, c))
    bot = core.fprime_omega_pow(c - 1 + Fraction(1) / lam).weighted(lowered_weights(p.ratio, c, nw + 1))
    weighted_form = (top / bot).truncate(order)
    # hypergeometric quotient: both series share the argument 2 beta a y / kappa,
    # written so that beta = 0 stays regular
    z = 2 * a / kappa
    upper = hyp2f1_scaled(c + 1, beta, 2 * c + 2 / kappa, z, order, c)
    lower = hyp2f1_scaled(c, beta, 2 * c - 2 + 2 / kappa, z, order, c - 1)
    hyper_form = (upper / lower).truncate(order)
    return weighted_form, hyper_form


def jacobi_shifted_op(core: ShefferCore, p: JacobiParams, c) -> OpMatrix:
    """The operator of the Jacobi family associated at c, over the core of the
    square case 4b = lam a^2."""
    nw = core.nw
    f_c = p.ratio.products(nw + 1, c)
    ell = core.fprime_omega_pow(c - 1 + Fraction(1) / p.lam).weighted(lowered_weights(p.ratio, c, nw + 1))
    return factorial_conj_op(ell, diag_conj(f_c, core.inner(c)), c)


def jacobi_assoc(p: JacobiParams, c, order: int, margin: int = ASSOC_MARGIN) -> AssocResult:
    c = guard_shift(c, order + margin)
    nw, core = guarded_core(p, order, margin)
    lam = p.lam
    base = deformed_op(core, p.ratio) if _tail_shift(c) else None
    gop = jacobi_shifted_op(core, p, c)
    u, rec = extract_recurrence(gop, order)
    checks = []
    if c != 0:
        display = closed_form_raising(jacobi_closed_form(p).assoc(c), nw)
        checks.append(op_check("shifted dual raising display", u, display, order))
    else:
        checks.append(op_check("c=0 reduction", gop, base, order))
    # omega'-cancellation display: (1+lam(theta+c-1)) . f'(omega)^(c-1+1/lam)
    #   = (1+lam(c-1)) omega' f'(omega)^(c-1+1/lam), with theta acting as y d/dy
    g = core.fprime_omega_pow(c - 1 + Fraction(1) / lam)
    theta_g = g.derivative().shift_up(1).truncate(g.order)
    lhs_series = ((1 + lam * (c - 1)) * g + lam * theta_g).truncate(g.order - 1)
    rhs_series = ((1 + lam * (c - 1)) * core.omega.derivative() * g).truncate(g.order - 1)
    checks.append(series_check("omega'-cancellation display", lhs_series, rhs_series, order))
    f0 = mgf_from_gop(gop).truncate(order)
    weighted_form, hyper_form = jacobi_assoc_mgf_forms(p, c, order, core)
    moment_form = f0.laplace()
    checks.append(series_check("weighted-series mgf formula", moment_form, weighted_form, order))
    checks.append(series_check("hypergeometric quotient mgf", moment_form, hyper_form, order))
    return _assoc_result("jacobi", "jacobi assoc: ", c, gop, rec, f0, checks, order, base)


# -- splitting of the shifted operator ------------------------------------------------------


def splitting_check(p: JacobiParams, c, order: int, margin: int = ASSOC_MARGIN) -> list:
    """The conjugated shifted raising operator splits into the lambda-part
    and kappa-part displays with weights r and 1-r."""
    nw = order + margin
    c = guard_shift(c, nw)
    p.guard(nw)
    u_c = jacobi_dual_raising(p, nw) if c == 0 else closed_form_raising(jacobi_closed_form(p).assoc(c), nw)
    # W . u_c . W^(-1) for W = F_{c+theta}/F_c (c+1)_theta/theta!
    lhs = diag_conj((p.ratio.shift(c) * poch_over_fact(c)).reciprocal().products(nw + 1), u_c)
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


def wilson_assoc(p: WilsonParams, c, order: int, margin: int = ASSOC_MARGIN) -> AssocResult:
    c = guard_shift(c, order + margin)
    nw, core = guarded_core(p, order, margin)
    lam, kappa, a = p.lam, p.kappa, p.a
    h_c = p.mixing_ratio.products(nw + 1, c)
    ells = p.ells(nw + 1, c)
    c2c = OpMatrix.shifted_product(ells, nw)
    # s(c, y) = 1 + y * theta! bar(C2(c)^(-1)) theta!^(-1) L (c+theta-1)_theta
    #                 (H_{c-1}^(-1) H_{theta+c-1}) . f'(omega)^(c-1+1/lam)
    k_series = core.fprime_omega_pow(c - 1 + Fraction(1) / lam)
    lowered = series_l(k_series.weighted(lowered_weights(p.mixing_ratio, c, nw + 1)))
    staged = newton_expansion(lowered, ells)
    s_series = (1 + staged.shift_up(1)).truncate(nw)
    inner = core.inner(c)
    gop = (
        factorial_conj(OpMatrix.series_of_d(s_series, nw))
        @ c2c
        @ diag_conj(poch_over_fact(c).products(nw + 1), diag_conj(h_c, inner))
    )
    u, rec = extract_recurrence(gop, order)
    checks = []
    up, down = u.band_profile(order)
    checks.append(flag_check("shifted raising operator tridiagonal", up <= 1 and down <= 1, f"band ({up},{down})"))
    # the expansion crossed, C2^T staged == lowered in integers: with column a of
    # C2 = N_a/d_a, sum_b N_a[b] staged_b = d_a lowered_a.  C2^T is unit triangular,
    # so this pins every staged coefficient in gop, also those past `order`, where
    # three_term does not see a fault first
    name = "column factorization of the shift operator"
    crossed = (
        sum(x * y for x, y in zip(nums, staged.nums)) * lowered.den - lowered.nums[a] * den * staged.den
        for a, (den, nums) in enumerate(c2c.cols[: lowered.order + 1])
    )
    checks.append(first_failure(name, (flag_check(name, not d, f"column {a}") for a, d in enumerate(crossed))))
    # conjugated square identity inner sq inner^(-1) == display, compared crossed
    # as display inner == inner sq
    sq = OpMatrix.diag_op([(1 + lam * (n + c)) ** 2 for n in range(nw + 1)], nw)
    display = sq - coeff_then_d(
        [2 * a * lam * lam / kappa * (1 + lam * (n + c)) * (1 + kappa * (n + c)) for n in range(nw + 1)],
        nw,
    )
    checks.append(conjugation_check("conjugated square identity", inner, display, sq, order))
    if c == 0:
        checks.append(op_check("c=0 reduction", gop, wilson_op(core, *wilson_factors(p, nw)), order))
    if p.h == 0:
        checks.append(op_check("h=0 reduction", gop, jacobi_shifted_op(core, JacobiParams(p.lam, p.a, p.rt), c), order))
    return _assoc_result("wilson", "", c, gop, rec, mgf_from_gop(gop).truncate(order), checks, order)
