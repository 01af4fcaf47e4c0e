"""The inverse-free identity checks against their dense forms.

Each check that once inverted an operator only to compare with it now
compares a cross-multiplied form (`checks.conjugation_check`,
`families.conjugation_trick_checks`) or builds the inverse it needs from a
series (C_delta^(-1) by Lagrange inversion, ell(D)^(-1) as (1/ell)(D)), and
every conjugate m^(-1) t m, the recurrence's raising operator among them,
is solved by back substitution (`opalg.conjugate`).  The dense forms are
kept here as references, written as the checks were before: under random
parameters the two give the same outcome, and with one entry of one factor
perturbed they fail in the same first column.
"""
import dataclasses
import inspect
import math
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from umbral import associated, families, verify
from umbral.associated import (
    change_of_variable_check,
    coeff_then_d,
    jacobi_assoc,
    long_division_checks,
    sheffer_assoc,
    ultra_assoc,
    wilson_assoc,
)
from umbral.checks import conjugation_check, first_failure, op_check, series_check
from umbral.errors import EngineError, NotInvertible, SingularParams
from umbral.families import (
    FAMILY_MARGIN,
    HahnParams,
    JacobiParams,
    MultiTermParams,
    ShefferParams,
    WilsonParams,
    comment_generator_bands,
    conjugation_trick_checks,
    deformed_op,
    generating_function_check,
    guarded_core,
    hahn_family,
    jacobi_diffeq_op,
    jacobi_family,
    jacobi_split_displays,
    multiterm_family,
    sheffer_family,
    sheffer_op,
    ultraspherical_family,
    wilson_family,
    wilson_op,
    x_times,
)
from umbral.indexfn import IndexRatio, Poly, affine
from umbral.opalg import OpMatrix, conjugate
from umbral.series import TruncSeries, exp_series
from umbral.verify import (
    RunConfig,
    _commutator_check,
    suite_base,
    suite_hahn,
    suite_jacobi,
    suite_longdiv,
    suite_multiterm,
    suite_ultra,
    suite_wilson,
)

ORDER = 5
SHEFFER = ShefferParams(F(1, 2), F(1, 3), F(2, 5))
JACOBI = JacobiParams(F(1, 3), F(2, 5), F(3, 7))
WILSON = WilsonParams(F(1, 2), F(1, 3), F(1, 2), F(1, 3), F(1, 4))
HAHN = HahnParams(2, F(1, 2), F(1, 2))
MULTITERM = MultiTermParams(3, F(1, 2), F(1, 3), (F(1, 3), F(1, 3), F(1, 6), F(1, 6)))
ASSOC_C = F(3, 2)
H_RATIO = IndexRatio(Poly([F(3, 2), 1]), Poly([1, 2]))
B = TruncSeries([1, F(1, 3), F(-2, 5), F(1, 7)] + [0] * 8)


# -- the uncrossed references --------------------------------------------------------


def ref_conjugation_trick_checks(core, sigma, through=None):
    """Both displayed forms of the lemma, with C_tf made by inverting the
    core's C_tf^(-1)."""
    sigma = F(sigma)
    nw = core.nw
    inv_diag = OpMatrix.diag_op([1 / (1 + sigma * n) for n in range(nw + 1)], nw)
    lhs = core.c_tf_inv.inverse() @ OpMatrix.x_op(nw) @ inv_diag @ core.c_tf_inv
    x_tf = OpMatrix.x_op(nw) @ OpMatrix.series_of_d(core.tf, nw)
    left = OpMatrix.x_op(nw) @ core.fpow(-1 / sigma)
    right = core.fpow(1 / sigma)
    middle = left @ (OpMatrix.identity(nw) + x_tf.scale(sigma)).inverse() @ right
    rhs = left @ core.c_f @ inv_diag @ core.c_f.inverse() @ right
    return [op_check("resolvent form", lhs, middle, through), op_check("composition form", lhs, rhs, through)]


def ref_split(f, order):
    """inner^(-1) t inner == r lam_part + (1-r) kappa_part."""
    split = f["lam_part"].scale(f["r"]) + f["kappa_part"].scale(1 - f["r"])
    return op_check("three-term split", f["inner"].inverse() @ f["t"] @ f["inner"], split, order)


def ref_bracket(f, order):
    """H . C2^(-1) x C2 . H^(-1) == display."""
    c2 = f["c2"]
    u = c2.inverse() @ OpMatrix.x_op(c2.nw) @ c2
    return op_check("bracket identity", u.diag_conj(f["ratio"].reciprocal().ratios(u.nw)), f["display"], order)


def ref_square(f, order):
    """inner . sq . inner^(-1) == display."""
    return op_check("conjugated square identity", f["inner"] @ f["sq"] @ f["inner"].inverse(), f["display"], order)


def ref_change(f, order):
    """C_f x (1+theta)^(-1) C_f^(-1) == x (1+theta)^(-1) (D/f(D))."""
    return op_check("change-of-variable form", f["cf"] @ f["x_over"] @ f["cf"].inverse(), f["rhs"], order - 1)


def ref_commutator(f, order):
    """[gop D gop^(-1), gop x gop^(-1)] == 1."""
    gop = f["gop"]
    nw = gop.nw
    inv = gop.inverse()
    u = gop @ OpMatrix.x_op(nw) @ inv
    d = gop @ OpMatrix.d_op(nw) @ inv
    return op_check("raising/lowering commutator", d @ u - u @ d, OpMatrix.identity(nw))


def ref_diffeq(f, order):
    """gop . sq . gop^(-1) == the closed form."""
    return op_check("second-order operator closed form", f["gop"] @ f["sq"] @ f["gop"].inverse(), f["rhs"], order)


def ref_hahn(f, order):
    """C_delta^(-1) gop == law, with C_delta composed and then inverted."""
    c_delta = OpMatrix.umbral_compose(f["delta"], f["gop"].nw)
    return op_check("expansion in binomial basis", c_delta.inverse() @ f["gop"], f["law"], order)


def ref_longdiv(f, order):
    """ell(D)^(-1) x_over ell(D) ratio == H (H.B)(D)^(-1) x_over (H.B)(D) H^(-1), with ell = B."""
    nw = f["x_over"].nw
    ell_op, hb_op = OpMatrix.series_of_d(f["ell"], nw), OpMatrix.series_of_d(f["hb"], nw)
    lhs = ell_op.inverse() @ f["x_over"] @ ell_op @ OpMatrix.diag_op(f["ratio_vals"], nw)
    rhs = (hb_op.inverse() @ f["x_over"] @ hb_op).diag_conj(f["h_ratio"].reciprocal().ratios(nw))
    return op_check("polynomial-domain form", lhs, rhs, order)


# -- the factors each build compares, and its crossed check on them --------------------


def split_factors(p, order):
    nw, core = guarded_core(p, order)
    lam_part, kappa_part = jacobi_split_displays(p, nw)
    t = x_times([p.ratio(n) for n in range(nw + 1)], nw)
    return {"inner": core.inner(), "t": t, "lam_part": lam_part, "kappa_part": kappa_part, "r": p.r}


def split_args(f, order):
    split = f["lam_part"].scale(f["r"]) + f["kappa_part"].scale(1 - f["r"])
    return "three-term split", f["inner"], f["t"], split, order


def bracket_factors(p, order):
    nw = order + FAMILY_MARGIN
    c2 = OpMatrix.shifted_product(p.ells(nw), nw)
    display = x_times([p.ratio(n) for n in range(nw + 1)], nw) - OpMatrix.diag_op(p.ells(nw + 1), nw)
    return {"c2": c2, "ratio": p.ratio, "display": display}


def bracket_args(f, order):
    c2 = f["c2"]
    return "bracket identity", c2, OpMatrix.x_op(c2.nw), f["display"].diag_conj(f["ratio"].ratios(c2.nw)), order


def square_factors(p, c, order):
    nw, core = guarded_core(p, order)
    lam, kappa, a = p.lam, p.kappa, p.a
    sq = OpMatrix.diag_op([(1 + lam * (n + c)) ** 2 for n in range(nw + 1)], nw)
    display = sq - coeff_then_d(
        [2 * a * lam * lam / kappa * (1 + lam * (n + c)) * (1 + kappa * (n + c)) for n in range(nw + 1)], nw
    )
    return {"inner": core.inner(c), "sq": sq, "display": display}


def square_args(f, order):
    return "conjugated square identity", f["inner"], f["display"], f["sq"], order


def change_factors(f, order):
    nw = order + FAMILY_MARGIN
    x_over = x_times([F(1, 1 + n) for n in range(nw + 1)], nw)
    y_over_f = (1 / f.shift_down(1)).truncate(nw - 1)
    rhs = x_over @ OpMatrix.series_of_d(TruncSeries.from_polynomial(list(y_over_f.coeffs), nw), nw)
    return {"cf": OpMatrix.umbral_compose(f, nw), "x_over": x_over, "rhs": rhs}


def change_args(f, order):
    return "change-of-variable form", f["cf"], f["rhs"], f["x_over"], order - 1


def commutator_factors(p, order):
    return {"gop": riccati_gop(p, order)}


def commutator_args(f, order):
    nw = f["gop"].nw
    x, d = OpMatrix.x_op(nw), OpMatrix.d_op(nw)
    return "base: raising/lowering commutator", f["gop"], OpMatrix.identity(nw), d @ x - x @ d, None


def diffeq_factors(p, order):
    nw = order + FAMILY_MARGIN
    lam, kappa, beta, a = p.lam, p.kappa, p.beta, p.a
    sq = OpMatrix.diag_op([(1 + lam * n) ** 2 for n in range(nw + 1)], nw)
    rhs = sq - coeff_then_d([2 * a * lam * lam / kappa * (1 + beta * n) for n in range(nw + 1)], nw)
    return {"gop": jacobi_gop(p, order), "sq": sq, "rhs": rhs}


def diffeq_args(f, order):
    return "second-order operator closed form", f["gop"], f["rhs"], f["sq"], order


def hahn_factors(p, order):
    nw = order + FAMILY_MARGIN
    square = ShefferParams(p.lam, p.a, p.lam * p.a * p.a / 4)
    ultra_gop = deformed_op(guarded_core(square, order)[1], square.ratio, 0)
    law = ultra_gop.diag_conj(affine(p.s - 1, -1).ratios(nw))
    delta = (exp_series(2 * p.a, nw) - 1) / (2 * p.a)
    return {"gop": OpMatrix.umbral_compose(delta, nw) @ law, "delta": delta, "law": law}


def hahn_args(f, order):
    xi = OpMatrix.umbral_compose_inverse(f["delta"], f["gop"].nw)._compared(f["gop"])
    return "expansion in binomial basis", xi, f["law"], order


def longdiv_factors(h_ratio, b, order):
    nw = order + FAMILY_MARGIN
    ell = b.truncate(nw)
    return {
        "ell": ell,
        "hb": ell.weighted(h_ratio.products(nw + 1)),
        "x_over": x_times([F(1, 1 + n) for n in range(nw + 1)], nw),
        "ratio_vals": [h_ratio(n) for n in range(nw + 1)],
        "h_ratio": h_ratio,
    }


def longdiv_args(f, order):
    nw = f["x_over"].nw

    def conj(ell):
        return OpMatrix.series_of_d(1 / ell, nw)._compared(f["x_over"])._compared(OpMatrix.series_of_d(ell, nw))

    lhs = conj(f["ell"])._compared(OpMatrix.diag_op(f["ratio_vals"], nw))
    return "polynomial-domain form", lhs, conj(f["hb"]).diag_conj(f["h_ratio"].reciprocal().ratios(nw)), order


def crossed(site, f, order):
    """The inverse-free check of a site, on the arguments its build passes."""
    _, args, _, check = SITES[site]
    return check(*args(f, order))


EXP = exp_series(1, ORDER + 6) - 1
SITES = {  # site -> (its factors at the pinned parameters, its check's arguments, its reference, its check)
    "split": (lambda: split_factors(JACOBI, ORDER), split_args, ref_split, conjugation_check),
    "bracket": (lambda: bracket_factors(WILSON, ORDER), bracket_args, ref_bracket, conjugation_check),
    "square": (lambda: square_factors(WILSON, ASSOC_C, ORDER), square_args, ref_square, conjugation_check),
    "change": (lambda: change_factors(EXP, ORDER), change_args, ref_change, conjugation_check),
    "commutator": (lambda: commutator_factors(SHEFFER, ORDER), commutator_args, ref_commutator, conjugation_check),
    "diffeq": (lambda: diffeq_factors(JACOBI, ORDER), diffeq_args, ref_diffeq, conjugation_check),
    "hahn": (lambda: hahn_factors(HAHN, ORDER), hahn_args, ref_hahn, op_check),
    "longdiv": (lambda: longdiv_factors(H_RATIO, B, ORDER), longdiv_args, ref_longdiv, op_check),
}


# -- the builds compare exactly these factors ------------------------------------------


def same_op(x, y):
    return (x.cols, x.raised, x.reliable) == (y.cols, y.raised, y.reliable)


@pytest.mark.parametrize("site, build, module", [
    ("split", lambda: jacobi_family(JACOBI, ORDER), families),
    ("bracket", lambda: wilson_family(WILSON, ORDER), families),
    ("square", lambda: wilson_assoc(WILSON, ASSOC_C, ORDER), associated),
    ("change", lambda: [change_of_variable_check(EXP, ORDER)], associated),
    ("commutator", lambda: [_commutator_check("base", riccati_gop(SHEFFER, ORDER))], verify),
    ("diffeq", lambda: jacobi_diffeq_op(JACOBI, ORDER)[2], families),
    ("hahn", lambda: hahn_family(HAHN, ORDER), families),
    ("longdiv", lambda: long_division_checks(H_RATIO, B, ORDER), associated),
])
def test_each_build_compares_the_factors_of_its_crossed_check(site, build, module, monkeypatch):
    make, args, _, check = SITES[site]
    expected = args(make(), ORDER)
    seen = []

    def spy(*given, **named):
        bound = inspect.signature(check).bind(*given, **named)
        bound.apply_defaults()
        if bound.arguments["name"] == expected[0]:
            seen.append(tuple(bound.arguments.values()))
        return check(*given, **named)

    monkeypatch.setattr(module, check.__name__, spy)
    result = build()
    (got,) = seen
    assert got[-1] == expected[-1]
    assert all(same_op(x, y) for x, y in zip(got[1:-1], expected[1:-1]))
    checks = result if isinstance(result, list) else result.checks
    assert [c for c in checks if c.name == got[0]] == [check(*expected)]
    assert checks and all(c.passed for c in checks)


# -- same outcome under random parameters -----------------------------------------------


small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
positive = st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6)


def passed(checks):
    return [c.passed for c in checks]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small, small, small)
def test_riccati_conjugation_trick_matches_the_reference(lam, a, b):
    assume(lam != 0)
    p = ShefferParams(lam, a, b)
    try:
        _, core = guarded_core(p, 4)
    except SingularParams:
        assume(False)
    assert passed(conjugation_trick_checks(core, (lam,), 4)) == passed(ref_conjugation_trick_checks(core, lam, 4))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(positive, small, st.fractions(min_value=0, max_value=1, max_denominator=5))
def test_jacobi_checks_match_the_references(lam, a, r):
    try:
        p = JacobiParams(lam, a, r)
        f = split_factors(p, 4)
        _, core = guarded_core(p, 4)
    except SingularParams:
        assume(False)
    assert crossed("split", f, 4).passed == ref_split(f, 4).passed
    ref = [c for sigma in (p.lam, p.kappa) for c in ref_conjugation_trick_checks(core, sigma, 4)]
    assert passed(conjugation_trick_checks(core, (p.lam, p.kappa), 4)) == passed(ref)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(positive, small, *[st.fractions(min_value=0, max_value=1, max_denominator=5)] * 3)
def test_wilson_checks_match_the_references(lam, a, r, rt, h):
    try:
        p = WilsonParams(lam, a, r, rt, h)
        p.guard(4 + FAMILY_MARGIN)
        bracket, square = bracket_factors(p, 4), square_factors(p, ASSOC_C, 4)
    except SingularParams:
        assume(False)
    assert crossed("bracket", bracket, 4).passed == ref_bracket(bracket, 4).passed
    assert crossed("square", square, 4).passed == ref_square(square, 4).passed


# -- a planted entry fails both forms in the same first column ---------------------------


def first_column(check):
    """The column of the first differing entry, or None for a passing check."""
    if check.passed:
        return None
    return int(re.match(r"entry \((\d+),(\d+)\)", check.witness).group(2))


def planted(op, m, n, delta=F(7, 3)):
    rows = op.mat
    rows[m][n] += delta if rows[m][n] + delta else 2 * delta
    return OpMatrix(rows, op.nw, op.raised, op.reliable)


def entries(op):
    """Every entry on or above the diagonal, and for a raising operator the
    one below it: a planted factor keeps its degree bounds, and an inverted
    one its inverse."""
    nw = op.nw
    return [(m, n) for n in range(nw + 1) for m in range(min(n + op.raised, nw) + 1)]


def assert_same_columns(pairs):
    """Crossed and reference checks fail together, in the same first column;
    returns how many failed."""
    pairs = list(pairs)
    mismatched = [(where, first_column(c), first_column(r)) for where, c, r in pairs
                  if first_column(c) != first_column(r)]
    assert not mismatched, mismatched[:5]
    return sum(not r.passed for _, _, r in pairs)


def earliest_column(checks):
    """The first failing column over `checks`, or None when all pass."""
    return min((n for n in map(first_column, checks) if n is not None), default=None)


def plant_field(name):
    """The core with one entry of its factor `name` planted; a planted
    C_tf^(-1) is also the one the reference inverts to make C_tf."""
    def plant(core):
        for m, n in entries(getattr(core, name)):
            bad = dataclasses.replace(core)
            setattr(bad, name, planted(getattr(core, name), m, n))
            yield (m, n), bad
    return plant


def plant_fpow(sigma):
    """F = f'(D)^(-1/sigma) planted, and f'(D)^(1/sigma) read as its inverse."""
    def plant(core):
        fpow = core.fpow(-1 / sigma)
        for m, n in entries(fpow):
            bad = dataclasses.replace(core)
            bad._memo[("fpow", -1 / sigma)] = f = planted(fpow, m, n)
            bad._memo[("fpow", 1 / sigma)] = f.inverse()
            yield (m, n), bad
    return plant


def planted_coeffs(s, bump=F(7, 3)):
    """(k, s with bump added to its y^k coefficient) for each k >= 1; the
    constant term stays, as tf and delta must stay reversible and ell a unit."""
    for k in range(1, s.order + 1):
        coeffs = list(s.coeffs)
        coeffs[k] += bump
        yield k, TruncSeries(coeffs)


def plant_tf(core):
    for k, tf in planted_coeffs(core.tf):
        bad = dataclasses.replace(core)
        bad.tf = tf
        yield k, bad


LEMMA_CALLS = [(SHEFFER, (SHEFFER.lam,)), (JACOBI, (JACOBI.lam, JACOBI.kappa))]  # as the builds call it


def lemma_plants(factor, sigmas):
    """The plants of one factor of the lemma; F is planted at each sigma in turn."""
    if factor == "fpow":
        return lambda core: (((s, *w), bad) for s in sigmas for w, bad in plant_fpow(s)(core))
    return {"c_tf_inv": plant_field("c_tf_inv"), "c_f": plant_field("c_f"), "tf": plant_tf}[factor]


def by_sigma(checks, sigmas):
    """The records of one call, as (sigma, that sigma's two records)."""
    assert len(checks) == 2 * len(sigmas)
    return [(sigma, checks[2 * i: 2 * i + 2]) for i, sigma in enumerate(sigmas)]


@pytest.mark.parametrize("factor", ["c_tf_inv", "c_f", "fpow", "tf"])
@pytest.mark.parametrize("p, sigmas", LEMMA_CALLS, ids=["ultra", "jacobi-pair"])
def test_planted_conjugation_trick_factor_fails_in_the_reference_column(factor, p, sigmas):
    """In one call over all of a build's sigmas, a planted factor fails each
    sigma's two records no later than the dense reference at that sigma
    does.  The crossed forms read inner off psi, not through
    C_tf^(-1) F C_f, so a plant may fail the other record instead
    (C_tf^(-1) at (0,0), which Y never reads, fails the resolvent form's
    comparison C_tf^(-1) e_0 == e_0), and plants the reference cannot see
    fail them (C_f at (0,0) and (1,1) and F at (0,0): each is C_f or F
    times a diagonal that commutes with what the reference conjugates, so
    C_f Dg C_f^(-1) and F Z F^(-1) absorb it)."""
    _, core = guarded_core(p, ORDER)
    failures = 0
    for where, bad in lemma_plants(factor, sigmas)(core):
        for sigma, records in by_sigma(conjugation_trick_checks(bad, sigmas, ORDER), sigmas):
            got = earliest_column(records)
            ref = earliest_column(ref_conjugation_trick_checks(bad, sigma, ORDER))
            assert ref is None or (got is not None and got <= ref), (where, sigma, got, ref)
            failures += ref is not None
    assert failures > 0


def test_a_planted_c_tf_inv_corner_fails_only_the_resolvent_form_in_column_0():
    """Y = C_tf^(-1) x F never reads column 0 of C_tf^(-1), so its (0,0)
    entry is seen by the comparison C_tf^(-1) e_0 == e_0 alone, which every
    sigma's resolvent form includes."""
    _, core = guarded_core(JACOBI, ORDER)
    bad = dataclasses.replace(core)
    bad.c_tf_inv = planted(core.c_tf_inv, 0, 0)
    checks = conjugation_trick_checks(bad, (JACOBI.lam, JACOBI.kappa), ORDER)
    assert [first_column(c) for c in checks] == [0, None, 0, None], checks
    assert checks[0].name == f"conjugation-trick sigma={JACOBI.lam} (resolvent form)"


def plants(value):
    """(where, value with one entry planted) for each entry of an operator
    factor, or for each coefficient of a series factor (C_delta is read
    through delta, ell(D) through ell)."""
    if isinstance(value, TruncSeries):
        return planted_coeffs(value)
    return (((m, n), planted(value, m, n)) for m, n in entries(value))


def site_cases(pairs):
    """The crossed check of each (site, slot), over every plant of that factor."""
    for site, slot in pairs:
        factors = SITES[site][0]()
        for _, bad in plants(factors[slot]):
            yield crossed(site, dict(factors, **{slot: bad}), ORDER)


def cut_cases():
    """The crossed checks that compare through a bound, which cut their
    products to the compared columns, over every planted entry of one
    factor each, and the lemma over every planted factor."""
    yield from site_cases([("split", "inner"), ("bracket", "c2"), ("square", "inner"), ("change", "cf"),
                           ("diffeq", "rhs"), ("hahn", "law"), ("longdiv", "hb")])
    for p, sigmas in LEMMA_CALLS:
        _, core = guarded_core(p, ORDER)
        for factor in ("c_tf_inv", "c_f", "fpow", "tf"):
            for _, bad in lemma_plants(factor, sigmas)(core):
                yield from conjugation_trick_checks(bad, sigmas, ORDER)


def test_the_column_cut_changes_no_verdict_or_witness(monkeypatch):
    """A product compared through `through` computes only those columns
    (`OpMatrix.cut`); with the cut turned off, every check comes out the
    same, witness included."""
    cut, calls = OpMatrix.cut, []
    monkeypatch.setattr(OpMatrix, "cut", lambda op, through: calls.append(through) or cut(op, through))
    got = list(cut_cases())
    assert calls and all(t is not None and t < ORDER + FAMILY_MARGIN for t in calls)
    assert {c.passed for c in got} == {True, False}  # plants inside the compared block and past it
    monkeypatch.setattr(OpMatrix, "cut", lambda op, through: op)
    assert list(cut_cases()) == got


def canonical(op):
    return all(den > 0 and math.gcd(den, *nums) == 1 for den, nums in op.cols)


def test_unreduced_products_change_no_verdict_or_witness(monkeypatch):
    """The products only a comparison reads skip the gcd pass
    (`OpMatrix._compared`); with every product made canonical instead, every
    check comes out the same, witness included."""
    compared, unreduced = OpMatrix._compared, []

    def spy(a, b):
        c = compared(a, b)
        unreduced.append(not canonical(c))
        return c

    def cases():
        yield from cut_cases()
        yield from site_cases([("commutator", "gop")])  # compared whole

    monkeypatch.setattr(OpMatrix, "_compared", spy)
    got = list(cases())
    assert any(unreduced) and {c.passed for c in got} == {True, False}
    monkeypatch.setattr(OpMatrix, "_compared", OpMatrix.__matmul__)
    assert list(cases()) == got


ASSOC_BUILDS = [(sheffer_assoc, SHEFFER), (ultra_assoc, SHEFFER), (jacobi_assoc, JACOBI), (wilson_assoc, WILSON)]


@pytest.mark.parametrize("build", [
    lambda: sheffer_family(SHEFFER, ORDER),
    lambda: ultraspherical_family(SHEFFER, ORDER),
    lambda: jacobi_family(JACOBI, ORDER),
    lambda: wilson_family(WILSON, ORDER),
    lambda: hahn_family(HAHN, ORDER),
    lambda: multiterm_family(MULTITERM, ORDER),
    *[lambda assoc=assoc, p=p, c=c: assoc(p, c, ORDER + 2) for c in (0, ASSOC_C) for assoc, p in ASSOC_BUILDS],
], ids=["sheffer", "ultraspherical", "jacobi", "wilson", "hahn", "multiterm",
        *[f"{assoc.__name__}-c{c}" for c in (0, ASSOC_C) for assoc, _ in ASSOC_BUILDS]])
def test_no_unreduced_operator_escapes(build, monkeypatch):
    """Every operator a build keeps is canonical: its gop, each raising
    operator it reads a recurrence off, and every operator of its cores."""
    cores, raising = [], []
    make_core, solve = families.sheffer_core, families.conjugate
    monkeypatch.setattr(families, "sheffer_core", lambda *args: cores.append(make_core(*args)) or cores[-1])
    monkeypatch.setattr(families, "conjugate", lambda m, t: raising.append(solve(m, t)) or raising[-1])
    result = build()
    kept = [result.gop, *raising]
    for core in cores:
        kept += [v for v in [*vars(core).values(), *core._memo.values()] if isinstance(v, OpMatrix)]
    assert cores and raising
    assert all(canonical(op) for op in kept)


def site_pairs(site, slot):
    """Each plant of one factor, with the crossed check and the reference on it."""
    make, _, ref, _ = SITES[site]
    factors = make()
    for where, bad_value in plants(factors[slot]):
        bad = dict(factors, **{slot: bad_value})
        yield where, crossed(site, bad, ORDER), ref(bad, ORDER)


@pytest.mark.parametrize("site, slot", [
    ("split", "inner"), ("split", "lam_part"), ("split", "kappa_part"),
    ("bracket", "c2"), ("bracket", "display"),
    ("square", "inner"), ("square", "display"),
    ("change", "cf"), ("change", "rhs"),
    ("diffeq", "gop"), ("diffeq", "rhs"),
    ("hahn", "delta"), ("hahn", "law"),
    ("longdiv", "ell"), ("longdiv", "hb"),
])
def test_planted_factor_fails_in_the_reference_column(site, slot):
    assert assert_same_columns(site_pairs(site, slot)) > 0


def test_a_planted_gop_fails_neither_commutator_form():
    """[gop D gop^(-1), gop x gop^(-1)] = 1 holds for every invertible
    triangular gop, so the check tests the operator kernels, not gop."""
    assert assert_same_columns(site_pairs("commutator", "gop")) == 0


def test_a_planted_closed_form_fails_the_eigen_action(monkeypatch):
    """The eigen-action applies the closed form itself to gop's columns, so
    one wrong entry of it in the compared block fails that check too."""
    make = families.coeff_then_d  # the -(2 a lam^2/kappa)(1+beta theta) D part of the closed form
    plants = [(m, n) for m, n in entries(diffeq_factors(JACOBI, ORDER)["rhs"]) if n <= ORDER]
    assert plants
    for m, n in plants:
        monkeypatch.setattr(families, "coeff_then_d", lambda values, nw: planted(make(values, nw), m, n))
        checks = {c.name: c for c in jacobi_diffeq_op(JACOBI, ORDER)[2]}
        assert not checks["second-order operator closed form"].passed, (m, n)
        assert not checks["eigen-action"].passed, (m, n)


def dense_derivative_display(gop, p, order):
    """The form the ultraspherical derivative display had, D gop == gop
    (1 + lam theta) W^(-1) resolvent(D) W, with W^(-1) resolvent(D) W as two
    products."""
    nw, lam, b = gop.nw, p.lam, p.b
    resolvent = TruncSeries.from_function(lambda i: (lam * b) ** (i // 2) if i % 2 == 1 else 0, nw)
    w = p.ratio.products(nw + 1)
    conj = OpMatrix.diag_op([1 / v for v in w], nw) @ OpMatrix.series_of_d(resolvent, nw) @ OpMatrix.diag_op(w, nw)
    expected = OpMatrix.diag_op([1 + lam * n for n in range(nw + 1)], nw) @ conj
    return conjugation_check("dual derivative display", gop, OpMatrix.d_op(nw), expected, order)


def test_a_planted_gop_fails_the_derivative_display_in_the_dense_form_column(monkeypatch):
    """Crossed by the unit upper triangular W^(-1) Q W, Q = 1 - lam b D^2,
    the ultraspherical derivative display fails in the column its dense
    form does, and passes where it passes."""
    make = families.deformed_op
    gop = make(guarded_core(SHEFFER, ORDER)[1], SHEFFER.ratio, 0)
    failures = 0
    for where, bad in plants(gop):
        monkeypatch.setattr(families, "deformed_op", lambda *args: bad)
        (got,) = [c for c in ultraspherical_family(SHEFFER, ORDER).checks if c.name == "dual derivative display"]
        ref = dense_derivative_display(bad, SHEFFER, ORDER)
        assert first_column(got) == first_column(ref), where
        failures += not ref.passed
    assert failures > 0
    assert dense_derivative_display(gop, SHEFFER, ORDER).passed


# -- the Sheffer generating function, each column from the last ------------------------


def ref_generating_function_check(name, barg, gen_weight, phi, order):
    """Column m of barg against gen_weight phi^m, each power of phi made in
    turn, as the check was before it built each column from the last."""
    def columns():
        power = TruncSeries.one(barg.nw)
        for m in range(order + 1):
            got = TruncSeries(barg.column(m)[: barg.reliable + 1])
            expect = (gen_weight * power).truncate(got.order)
            yield series_check(f"generating function column {m}", got, expect, order)
            power = power * phi

    return first_failure(name, columns())


def generating_inputs(p, order):
    """A Sheffer build and the arguments it passes its generating-function check."""
    seen, check = [], families.generating_function_check
    families.generating_function_check = lambda *args: seen.append(args) or check(*args)
    try:
        fam = sheffer_family(p, order)
    finally:
        families.generating_function_check = check
    (args,) = seen
    return fam, args


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small, small, small)
@example(F(0), F(1, 3), F(2, 5))
def test_the_generating_function_matches_the_power_form(lam, a, b):
    try:
        fam, args = generating_inputs(ShefferParams(lam, a, b), 4)
    except SingularParams:
        assume(False)
    record = generating_function_check(*args)
    assert record == ref_generating_function_check(*args)
    assert record in fam.checks and record.passed


@pytest.mark.parametrize("p", [SHEFFER, ShefferParams(0, F(1, 3), F(2, 5))], ids=["riccati", "lam=0"])
def test_a_planted_bar_entry_gives_the_power_form_record(p):
    """Each entry of the compared block (coefficient i of column m, both up
    to the order) planted in turn: both forms return the same record, failed
    in that column at that coefficient; a plant just outside the block
    passes both."""
    _, (name, barg, gen_weight, phi, order) = generating_inputs(p, ORDER)
    assert name == f"generating function to bidegree ({order},{order})"
    for m in range(order + 2):
        for i in range(order + 2):
            bad = planted(barg, i, m)
            record = generating_function_check(name, bad, gen_weight, phi, order)
            assert record == ref_generating_function_check(name, bad, gen_weight, phi, order), (i, m)
            inside = i <= order and m <= order
            assert record.passed != inside, (i, m)
            if inside:
                assert record.name == f"generating function column {m}", (i, m)
                assert record.witness.startswith(f"coefficient {i}:"), (i, m)


def ref_ultraspherical_display(gop, p, order):
    """The ultraspherical generating function display as it was written before
    it read bar(W gop W^(-1)): column m of sum_n c_n q_n(x) y^n against
    c_m y^m amp^(-1/lam-m), each power of amp made by its own pow_fraction."""
    lam, through = p.lam, min(order, 8)
    amp = TruncSeries.from_polynomial([1, lam * p.a, lam * p.b], through)
    c = IndexRatio(Poly([1, lam]), Poly([1, 1])).products(gop.nw + 1)

    def column(m):
        got = TruncSeries([c[n] * gop.entry(m, n) for n in range(through + 1)])
        expect = (amp.pow_fraction(F(-1) / lam - m) * c[m]).shift_up(m).truncate(through)
        return series_check(f"generating function column {m}", got, expect)

    return first_failure(f"generating function display to order {through}", map(column, range(through + 1)))


def test_a_planted_gop_entry_fails_the_ultraspherical_display_as_the_closed_form_does(monkeypatch):
    """Each entry on or above the diagonal of gop's compared block, and one
    column past it, planted in turn: the display passes or fails as the
    closed form read column by column does, and in the same column."""
    order = 8
    gop = ultraspherical_family(SHEFFER, order).gop
    for n in range(order + 2):
        for m in range(n + 1):
            bad = planted(gop, m, n)
            monkeypatch.setattr(families, "deformed_op", lambda *args: bad)
            record = ultraspherical_family(SHEFFER, order).checks[-1]
            ref = ref_ultraspherical_display(bad, SHEFFER, order)
            assert (record.name, record.passed) == (ref.name, ref.passed), (m, n)
            assert record.passed == (n > order), (m, n)


# -- every conjugate m^(-1) t m solved by back substitution --------------------------------


def dense_conjugate(m, t):
    """m^(-1) t m as the plain product: the reference for opalg.conjugate."""
    return m.inverse() @ t @ m


def riccati_gop(p, order):
    return sheffer_op(guarded_core(p, order)[1])


def jacobi_gop(p, order):
    return deformed_op(guarded_core(p, order)[1], p.ratio, 0)


def wilson_gop(p, order):
    nw, core = guarded_core(p, order)
    return wilson_op(core, p, OpMatrix.shifted_product(p.ells(nw), nw))


def hahn_gop(p, order):
    return hahn_family(p, order).gop


unit = st.fractions(min_value=0, max_value=1, max_denominator=5)
GOPS = {  # family -> (its drawn parameters, its operator, pinned parameters)
    "riccati": (st.builds(ShefferParams, small.filter(bool), small, small), riccati_gop, SHEFFER),
    "jacobi": (st.builds(JacobiParams, positive, small, unit), jacobi_gop, JACOBI),
    "wilson": (st.builds(WilsonParams, positive, small, unit, unit, unit), wilson_gop, WILSON),
    "hahn": (st.builds(HahnParams, positive, small, small), hahn_gop, HahnParams(2, F(1, 2), F(1, 2))),
}


@st.composite
def multiterm_params(draw):
    """n = 2..4 weights, or n + 1 for the extended family, summing to 1; a = 0
    (the monomials, band (1, 0)) included."""
    n = draw(st.integers(2, 4))
    t = [draw(small) for _ in range(n - 1 + draw(st.integers(0, 1)))]
    return MultiTermParams(n, draw(small.filter(bool)), draw(small), (*t, 1 - sum(t)))


def raising_pair(make):
    """The family operator of `make` with x: the dual raising operator."""
    def pairs(p, order):
        gop = make(p, order)
        return [(gop, OpMatrix.x_op(gop.nw))]
    return pairs


def generator_pairs(p, order):
    """The (inner, generator) pairs that comment_generator_bands conjugates."""
    seen = []

    def spy(m, t):
        seen.append((m, t))
        return conjugate(m, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "conjugate", spy)
        comment_generator_bands(p, order)
    assert len(seen) == 4
    return seen


CONJUGATES = {  # case -> (its drawn parameters, the (m, t) pairs it conjugates)
    **{family: (params, raising_pair(make)) for family, (params, make, _) in GOPS.items()},
    "multiterm": (multiterm_params(), raising_pair(lambda p, order: multiterm_family(p, order).gop)),
    "generators": (GOPS["jacobi"][0], generator_pairs),
}


def recurrence_outcome(reader, m, t):
    """The recurrence and its fault, raise and reliable block of reader(m, t),
    or the error it raises on the way."""
    try:
        u = reader(m, t)
        return u.three_term(), u.raised, u.reliable
    except EngineError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", CONJUGATES)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_the_reader_matches_the_dense_reference(case, data):
    params, make = CONJUGATES[case]
    try:
        pairs = make(data.draw(params), 4)
    except EngineError:
        assume(False)
    for m, t in pairs:
        assert recurrence_outcome(conjugate, m, t) == recurrence_outcome(dense_conjugate, m, t)
        u, ref = conjugate(m, t), dense_conjugate(m, t)
        assert u.first_difference(ref) is None and (u.raised, u.reliable) == (ref.raised, ref.reliable)


def test_the_reader_keeps_a_declared_raise():
    """A raise declared on m shrinks the reliable block as in the dense
    product, although m is triangular."""
    gop = jacobi_gop(JACOBI, ORDER)
    m, x = OpMatrix(gop.mat, gop.nw, 2, gop.reliable), OpMatrix.x_op(gop.nw)
    u, ref = conjugate(m, x), dense_conjugate(m, x)
    assert (u.raised, u.reliable) == (ref.raised, ref.reliable) == (3, gop.reliable - 3)
    assert u.first_difference(ref) is None


def reader_fault(outcome):
    """"band" or "raising" for the fault three_term() names, "passed" when it
    names none, or the error raised on the way."""
    if isinstance(outcome[0], type):
        return outcome[0]
    fault = outcome[0][2]
    return "band" if fault.startswith("entry outside band") else "raising" if fault else "passed"


def crossed_column(gop):
    """The first column the reader cannot leave on its three diagonals: where
    x gop == gop U fails for U its result cut to rows n - 1 .. n + 1."""
    try:
        u = conjugate(gop, OpMatrix.x_op(gop.nw))
    except NotInvertible:
        return None
    rows = [[v if abs(m - n) <= 1 else 0 for n, v in enumerate(row)] for m, row in enumerate(u.mat)]
    cut = OpMatrix(rows, u.nw, u.raised, u.reliable)
    diff = (OpMatrix.x_op(gop.nw) @ gop).first_difference(gop @ cut)
    return None if diff is None else diff[1]


def outside_band_column(gop):
    """The first column n <= hi, the reader's column bound, of the reader's
    u = gop^(-1) x gop with a nonzero entry off its three diagonals, found
    from u's entries whatever fault three_term() names, or None."""
    try:
        u = conjugate(gop, OpMatrix.x_op(gop.nw))
    except NotInvertible:
        return None
    hi = min(u.reliable, u.nw - 1)
    return next((n for n in range(hi + 1) if any(u.mat[m][n] for m in range(u.nw + 1) if abs(m - n) > 1)), None)


@pytest.mark.parametrize("family", GOPS)
def test_a_planted_gop_entry_fails_the_reader_in_the_reference_column(family):
    _, make, p = GOPS[family]
    gop = make(p, ORDER)
    x = OpMatrix.x_op(gop.nw)
    outcomes = Counter()
    for n in range(gop.reliable + 1):
        for m in range(gop.nw + 1):
            bad = planted(gop, m, n)
            ref = recurrence_outcome(dense_conjugate, bad, x)
            assert recurrence_outcome(conjugate, bad, x) == ref, (m, n)
            assert crossed_column(bad) == outside_band_column(bad), (m, n)
            outcomes[reader_fault(ref)] += 1
    assert outcomes["band"] and outcomes["raising"] and outcomes[NotInvertible], outcomes


# -- a fault of the reader fails each build under its named check ------------------------

MULTITERM_TRIDIAGONAL = MultiTermParams(2, F(1, 2), F(1, 3), (F(1, 2), F(1, 2)))
READERS = [  # build -> the checks a fault of the reader in column 3 fails, with that column as witness
    pytest.param(lambda c: sheffer_family(SHEFFER, ORDER), ["dual raising display"], id="sheffer_family"),
    pytest.param(lambda c: ultraspherical_family(SHEFFER, ORDER), ["dual raising display"], id="ultraspherical_family"),
    pytest.param(lambda c: hahn_family(HAHN, ORDER), ["dual raising display"] * 2, id="hahn_family"),  # and ultra's
    pytest.param(lambda c: jacobi_family(JACOBI, ORDER), ["dual raising closed form"], id="jacobi_family"),
    pytest.param(lambda c: wilson_family(WILSON, ORDER), ["raising operator tridiagonal"], id="wilson_family"),
    pytest.param(lambda c: multiterm_family(MULTITERM_TRIDIAGONAL, ORDER), ["band profile (1,1)"],
                 id="multiterm_family"),
    pytest.param(lambda c: sheffer_assoc(SHEFFER, c, ORDER),
                 ["shifted dual raising display", "sheffer assoc: explicit vs tail mgf"], id="sheffer_assoc"),
    pytest.param(lambda c: ultra_assoc(SHEFFER, c, ORDER),
                 ["shifted dual raising display", "ultraspherical assoc: explicit vs tail mgf"], id="ultra_assoc"),
    pytest.param(lambda c: jacobi_assoc(JACOBI, c, ORDER),
                 ["shifted dual raising display", "jacobi assoc: explicit vs tail mgf"], id="jacobi_assoc"),
    pytest.param(lambda c: jacobi_assoc(JACOBI, 0, ORDER), ["c=0 reduction", "jacobi assoc: explicit vs tail mgf"],
                 id="jacobi_assoc-c0"),
    pytest.param(lambda c: wilson_assoc(WILSON, c, ORDER), ["shifted raising operator tridiagonal"],
                 id="wilson_assoc"),
]


@pytest.mark.parametrize("build, names", READERS)
@pytest.mark.parametrize("row, kind", [(0, "entry outside band at (0,3)"), (4, "raising entry at column 3 is 10/3")])
def test_a_fault_of_the_reader_fails_the_build_under_its_named_check(build, names, row, kind, monkeypatch):
    """Every raising operator a build reads, its base's for the tail pipeline
    among them, gets entry (row, 3) planted: an entry outside the band or a
    raising entry other than 1.  The build returns; the checks that read the
    raising operator fail in column 3, a display comparison with its own
    witness and the others with the reader's fault.  The planted entry is
    off the three diagonals the recurrence is read from, so no other check
    fails, and a failed tail check exports no tail series."""
    assert all(c.passed for c in build(1).checks)
    solve = families.conjugate
    monkeypatch.setattr(families, "conjugate", lambda m, t: planted(solve(m, t), row, 3))
    result = build(1)
    failed = [c for c in result.checks if not c.passed]
    assert [c.name for c in failed] == names, failed
    assert all(c.witness == kind or c.witness.startswith(f"entry ({row},3): ") for c in failed), failed
    assert "tails" not in getattr(result, "pipelines", {})  # none is read off a faulty base


@pytest.mark.parametrize("n", range(2, ORDER + 2))
def test_a_planted_gop_entry_fails_the_wilson_tridiagonal_flag(n, monkeypatch):
    """wilson_family compares its raising operator u with no display, only
    the flag.  An entry (m, n) of gop planted above the diagonal puts
    entries outside the band into u from column n - 1 on (column n - 1 of
    u reads column n of gop), and columns 0 and 1 have no row outside it,
    so the flag fails with the reader's fault in column max(n - 1, 2)."""
    make = families.wilson_op
    for m in range(n):
        monkeypatch.setattr(families, "wilson_op", lambda *args: planted(make(*args), m, n))
        (flag,) = [c for c in wilson_family(WILSON, ORDER).checks if c.name == "raising operator tridiagonal"]
        assert re.fullmatch(rf"entry outside band at \(\d+,{max(n - 1, 2)}\)", flag.witness), (m, flag)
        assert not flag.passed


# -- what one build costs ----------------------------------------------------------------


@pytest.mark.parametrize("build, products", [
    pytest.param(lambda: sheffer_family(SHEFFER, 8), 1, id="sheffer"),
    pytest.param(lambda: ultraspherical_family(SHEFFER, 8), 12, id="ultraspherical"),
    pytest.param(lambda: jacobi_family(JACOBI, 8), 16, id="jacobi"),
    pytest.param(lambda: wilson_family(WILSON, 8), 12, id="wilson"),
    pytest.param(lambda: hahn_family(HAHN, 8), 15, id="hahn"),
    pytest.param(lambda: multiterm_family(MULTITERM, 8), 10, id="multiterm"),
    pytest.param(lambda: sheffer_assoc(SHEFFER, ASSOC_C, 10), 3, id="sheffer_assoc"),
    pytest.param(lambda: ultra_assoc(SHEFFER, ASSOC_C, 10), 2, id="ultra_assoc"),
    pytest.param(lambda: jacobi_assoc(JACOBI, ASSOC_C, 10), 2, id="jacobi_assoc"),
    pytest.param(lambda: wilson_assoc(WILSON, ASSOC_C, 10), 5, id="wilson_assoc"),
    pytest.param(lambda: ultra_assoc(SHEFFER, 0, 10), 3, id="ultra_assoc_c0"),
    pytest.param(lambda: jacobi_assoc(JACOBI, 0, 10), 3, id="jacobi_assoc_c0"),
    pytest.param(lambda: wilson_assoc(WILSON, 0, 10), 6, id="wilson_assoc_c0"),
])
def test_a_build_inverts_no_operator(build, products, monkeypatch):
    """The conjugation lemma is compared on C_tf^(-1)'s side, so no build
    makes C_tf, and the family operator is never inverted.  `products` is the
    count of operator products with every check crossed and the raising
    operator solved by back substitution, which takes the one product x gop.
    The Sheffer operator f'(D)^(-1/lam) C_f is read off psi, no product, so
    that one is all a Sheffer build makes.
    A diagonal conjugation W^(-1) op W (`OpMatrix.diag_conj`: the deformed operators,
    the ultraspherical derivative display, Hahn's law, Wilson's bracket) is
    one pass over op's columns and makes no product, where it made two.
    The lemma takes three products once per core (x tf(D), its product with
    C_f, and C_f theta) and five per sigma (x F, Y = C_tf^(-1) x F, Y C_f,
    that times G, and x G inner), so Jacobi's second sigma costs five more.
    An associated build is ell(L) times W^(-1) inner(c) W, one product
    (Wilson puts C2(c) between them, and Sheffer multiplies its base
    operator by ((y/f)^c)(D) first), and reads ell(L) as a Toeplitz
    operator, not as theta! ell(D) theta!^(-1).  At c = 0 the base operator
    the tails and the c=0 reduction read is that W^(-1) inner(0) W, built
    once."""
    count = Counter()
    invert, product = OpMatrix.inverse, OpMatrix._product

    def counted_invert(op):
        count["inverse"] += 1
        return invert(op)

    def counted_product(a, b, reduce):
        count["product"] += 1
        return product(a, b, reduce)

    monkeypatch.setattr(OpMatrix, "inverse", counted_invert)
    monkeypatch.setattr(OpMatrix, "_product", counted_product)
    assert all(c.passed for c in build().checks)
    assert count["inverse"] == 0 and count["product"] <= products, count


def test_a_jacobi_build_makes_tf_of_d_once(monkeypatch):
    """The sigma-free half of the lemma, x tf(D) C_f == C_f theta, is
    compared once per core, so tf(D) is made once for both sigma = lam and
    sigma = kappa."""
    cores, seen = [], []
    make_core, series_of_d = families.sheffer_core, OpMatrix.series_of_d
    monkeypatch.setattr(families, "sheffer_core", lambda *args: cores.append(make_core(*args)) or cores[-1])
    monkeypatch.setattr(OpMatrix, "series_of_d", lambda ell, nw: seen.append(ell) or series_of_d(ell, nw))
    assert all(c.passed for c in jacobi_family(JACOBI, 8).checks)
    (core,) = cores
    assert sum(ell is core.tf for ell in seen) == 1


@pytest.mark.parametrize(
    "suite",
    [suite_base, suite_longdiv, suite_ultra, suite_hahn, suite_wilson, suite_jacobi, suite_multiterm],
    ids=["base", "longdiv", "ultra", "hahn", "wilson", "jacobi", "multiterm"],
)
def test_a_suite_with_no_c_tf_inverts_nothing(suite, monkeypatch):
    """The commutator, the polynomial-domain long division form and the
    conjugation lemma compare with no inverse, no build makes C_tf, and every
    conjugate m^(-1) t m is solved by back substitution, so these sweeps
    invert nothing."""
    def refuse(op):
        raise AssertionError("an operator was inverted")

    monkeypatch.setattr(OpMatrix, "inverse", refuse)
    checks = suite(RunConfig(order=12, seed=1))
    assert checks and all(c.passed for c in checks)
