from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import umbral.associated as associated
import umbral.series as series
from umbral.associated import (
    change_of_variable_check,
    guard_shift,
    jacobi_assoc,
    jacobi_assoc_mgf_forms,
    long_division_checks,
    newton_expansion,
    sheffer_assoc,
    shifted_ell,
    shifted_op,
    splitting_check,
    ultra_assoc,
    wilson_assoc,
)
from umbral.cli import main
from umbral.errors import DiagSingular, SingularParams
from umbral.families import (
    JacobiParams,
    ShefferParams,
    WilsonParams,
    deformed_op,
    diag_conj,
    jacobi_family,
    poch_over_fact,
    riccati_core,
    sheffer_family,
    ultraspherical_family,
    wilson_family,
)
from umbral.indexfn import IndexRatio, Poly, affine
from umbral.opalg import OpMatrix
from umbral.series import TruncSeries, exp_series


def all_pass(checks):
    bad = [(c.name, c.witness) for c in checks if not c.passed]
    assert not bad, bad


def nested_pass(build, *args):
    """An assoc build reuses its base family's operator chain over the same
    core, not that family's checks; build the base family (or, for the
    Wilson reductions, the family whose operator is reused) alone and
    require its checks."""
    all_pass(build(*args).checks)


# ---- the replaced routes, kept as references --------------------------------------------
#
# Each associated operator was built as theta! ell(D) theta!^(-1) times two
# nested diagonal conjugations of inner(c), with an ell per family: the
# ultraspherical one omega' f'(omega)^(c-1+1/lam) weighted by (c)_theta
# F_{c+theta}/F_c, the Jacobi and Wilson ones f'(omega)^(c-1+1/lam) weighted
# by (c)_theta F_{c-1+theta}/F_{c-1}.  The one route that replaced them must
# give the same storage wherever the old ones were defined.


def lowered_form(core, ratio, c):
    """f'(omega)^(c-1+1/lam) (c)_theta prod_{j<theta} ratio(c-1+j); at c = 0
    the rising factor leaves the constant 1 alone."""
    count = core.nw + 1
    if c == 0:
        weights = (F(1),) + (F(0),) * (count - 1)
    else:
        weights = (ratio * affine(1, 1)).products(count, c - 1)
    return core.fprime_omega_pow(c - 1 + 1 / core.lam).weighted(weights)


def ultra_form(core, ratio, c):
    """omega' f'(omega)^(c+1/lam-1) weighted by (c)_theta F_{c+theta}/F_c."""
    ell = core.omega_prime * core.fprime_omega_pow(c + 1 / core.lam - 1)
    return ell.weighted((affine(0, 1) * ratio).products(core.nw + 1, c))


def nested_op(core, ratio, c):
    """(c+1)_theta/theta! and F_{c+theta}/F_c conjugating inner(c) in turn."""
    return diag_conj(poch_over_fact(c), diag_conj(ratio, core.inner(c), c))


def outcome(make):
    """What make() returns, or the DiagSingular message it raises."""
    try:
        return make()
    except DiagSingular as exc:
        return str(exc)


def same_storage(a, b):
    return (a.cols, a.raised, a.reliable) == (b.cols, b.raised, b.reliable)


small = st.fractions(-3, 3, max_denominator=4)
nonzero = small.filter(lambda v: v != 0)
shifts = small.filter(lambda v: v.denominator > 1 or v >= 0)
NW = 8


@st.composite
def shift_records(draw):
    """An ultraspherical, Jacobi or Wilson record whose guard passes at NW."""
    kind = draw(st.sampled_from([ShefferParams, JacobiParams, WilsonParams]))
    lam = draw(nonzero.filter(lambda v: v != -2))
    rest = draw(st.lists(small, min_size=4, max_size=4))
    try:
        p = kind(lam, *rest[: len(kind.KEYS) - 1])
        p.guard(NW)
    except SingularParams:
        assume(False)
    return p


@settings(max_examples=80, deadline=None)
@given(shift_records(), shifts)
@example(JacobiParams(2, F(1, 2), 1), F(1, 2))
@example(WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), F(1, 4)), F(1, 2))
@example(JacobiParams(1, F(1, 2), F(1, 3)), F(0))
def test_shifted_ell_is_the_lowered_form_where_that_is_defined(p, c):
    """The lowered form's one extra pole is 1 + lam (c - 1) = 0, where the
    factor it shares with the diagonal cancels; at c = 0 neither evaluates
    the ratio at -1, which may be a pole (lam = 1 above).  Where both have
    a pole, a build reports the one of F_{c+theta} first (see
    `test_deformed_op_is_the_nested_conjugation`).  top = shifted_ell(c + 1)
    is f'(omega)^(c+1/lam) (c+1)_theta F_{c+theta}/F_c."""
    tilde, ratio = p.tilde, p.ratio
    core = riccati_core(p.lam, p.a, p.b, NW)
    got = outcome(lambda: shifted_ell(core, tilde, c))
    ref = outcome(lambda: lowered_form(core, ratio, c))
    if isinstance(ref, str):
        assert isinstance(got, str) or 1 + p.lam * (c - 1) == 0
    else:
        assert got == ref
    if 1 + p.lam * (c - 1) == 0 and c != 0:
        assert isinstance(ref, str)
    if c != 0:
        top = outcome(lambda: core.fprime_omega_pow(c + 1 / p.lam).weighted(
            (affine(1, 1) * ratio).products(NW + 1, c)))
        if not isinstance(top, str):
            assert shifted_ell(core, tilde, c + 1) == top


@settings(max_examples=60, deadline=None)
@given(nonzero, small, small, shifts)
def test_ultraspherical_shifted_ell_is_omega_prime_times_the_power(lam, a, b, c):
    p = ShefferParams(lam, a, b)
    try:
        p.guard(NW)
        ref = ultra_form(riccati_core(lam, a, b, NW), p.ratio, c)
    except (SingularParams, DiagSingular):
        assume(False)
    assert shifted_ell(riccati_core(lam, a, b, NW), p.tilde, c) == ref


@settings(max_examples=60, deadline=None)
@given(shift_records(), shifts)
def test_deformed_op_is_the_nested_conjugation(p, c):
    """One diag_conj by W = (c+1)_theta/theta! F_{c+theta}/F_c against the
    nested pair, a pole of F reported alike; and, where the lowered ell is
    defined, the associated operator against theta! ell(D) theta!^(-1) over
    the nested pair."""
    ratio = p.ratio
    core = riccati_core(p.lam, p.a, p.b, NW)
    ref = outcome(lambda: nested_op(core, ratio, c))
    got = outcome(lambda: deformed_op(core, ratio, c))
    if isinstance(ref, str):
        assert got == ref
        return
    assert same_storage(got, ref)
    ell = outcome(lambda: lowered_form(core, ratio, c))
    if isinstance(ell, str):
        return
    old = diag_conj(IndexRatio(1, Poly([1, 1])), OpMatrix.series_of_d(ell, NW)) @ ref
    assert same_storage(shifted_op(core, p, c), old)


def test_the_pole_of_the_lowered_ratio_builds():
    """1 + lam (c - 1) = 0 at lam = 2, c = 1/2: the Jacobi and Wilson builds
    go through, as the ultraspherical one at the same point does, and
    Jacobi's two mgf forms agree there."""
    for res in (
        ultra_assoc(ShefferParams(2, F(1, 2), F(1, 8)), F(1, 2), 10),
        jacobi_assoc(JacobiParams(2, F(1, 2), 1), F(1, 2), 10),
        wilson_assoc(WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), F(1, 4)), F(1, 2), 10),
        wilson_assoc(WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), 0), F(1, 2), 10),
    ):
        all_pass(res.checks)
    p = JacobiParams(2, F(1, 2), 1)
    core = riccati_core(p.lam, p.a, p.b, 18)
    with pytest.raises(DiagSingular):
        lowered_form(core, p.ratio, F(1, 2))
    weighted, hyper = jacobi_assoc_mgf_forms(p, F(1, 2), 10, core)
    assert weighted == hyper


def test_sheffer_assoc_solves_the_riccati_series_once(monkeypatch):
    """f to order nw + 1 is the integral of the core's f' = psi(f), so one
    build solves f' = psi(f) once, for its core."""
    calls = []
    solve = series.solve_autonomous_ode

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(series, "solve_autonomous_ode", counted)
    all_pass(sheffer_assoc(ShefferParams(F(1, 2), F(1, 3), F(2, 5)), F(3, 2), 10).checks)
    assert len(calls) == 1

# ---- long division lemma --------------------------------------------------------


def test_long_division_trivial_weight():
    all_pass(long_division_checks(IndexRatio.const(1), TruncSeries.from_polynomial([1, 1], 20), 8))


def test_long_division_affine_weight():
    all_pass(long_division_checks(affine(2, 1), TruncSeries.from_polynomial([1, 1], 20), 8))


def test_long_division_generic():
    b = TruncSeries([1, F(1, 2), F(-1, 3), 2, F(1, 7), 0, 1] + [F(1, 5)] * 10)
    all_pass(long_division_checks(IndexRatio(Poly([F(3, 2), 1]), Poly([1, 2])), b, 8))


def test_change_of_variable_exponential():
    assert change_of_variable_check(exp_series(1, 18) - 1, 8).passed


# ---- associated base family ------------------------------------------------------


def test_sheffer_assoc_zero_reduction():
    res = sheffer_assoc(ShefferParams(1, 1, 1), 0, 10)
    all_pass(res.checks)
    nested_pass(sheffer_family, ShefferParams(1, 1, 1), 10)


def test_sheffer_assoc_laguerre_tails():
    res = sheffer_assoc(ShefferParams(1, 1, 0), 1, 12)
    all_pass(res.checks)
    nested_pass(sheffer_family, ShefferParams(1, 1, 0), 12)
    names = [c.name for c in res.checks]
    assert any("tail" in n for n in names)


def test_sheffer_assoc_rational_c():
    res = sheffer_assoc(ShefferParams(1, 0, 1), F(1, 2), 10)
    all_pass(res.checks)
    nested_pass(sheffer_family, ShefferParams(1, 0, 1), 10)
    fam = sheffer_family(ShefferParams(1, 0, 1), 10)
    all_pass(fam.checks)
    base = fam.closed_form.assoc(F(1, 2))
    for n in range(1, 6):
        assert res.recurrence.b_at(n) == base.b_fn(n)
        assert res.recurrence.a_at(n) == base.a_fn(n)


def test_sheffer_assoc_guard():
    with pytest.raises(SingularParams):
        sheffer_assoc(ShefferParams(1, 1, 1), -3, 10)


# ---- associated first deformation ---------------------------------------------------


def test_ultra_assoc_chebyshev_self_similar():
    res = ultra_assoc(ShefferParams(1, 0, 1), 1, 10)
    all_pass(res.checks)
    nested_pass(ultraspherical_family, ShefferParams(1, 0, 1), 10)
    assert res.recurrence.b[:5] == (1, F(1, 2), F(1, 3), F(1, 4), F(1, 5))


def test_ultra_assoc_third():
    res = ultra_assoc(ShefferParams(1, 0, 1), F(1, 3), 10)
    all_pass(res.checks)
    nested_pass(ultraspherical_family, ShefferParams(1, 0, 1), 10)
    assert res.recurrence.b[:6] == tuple(F(1, n) for n in range(1, 7))


def test_ultra_assoc_generic_rational():
    res = ultra_assoc(ShefferParams(F(1, 2), F(2, 3), F(3, 5)), F(-1, 3), 10)
    all_pass(res.checks)
    nested_pass(ultraspherical_family, ShefferParams(F(1, 2), F(2, 3), F(3, 5)), 10)


# ---- splitting --------------------------------------------------------------------------


def test_splitting_base_case():
    all_pass(splitting_check(JacobiParams(2, F(1, 2), F(1, 2)), 0, 8))


def test_splitting_pure_lambda():
    all_pass(splitting_check(JacobiParams(2, F(1, 2), 1), F(3, 2), 8))


def test_splitting_generic():
    all_pass(splitting_check(JacobiParams(2, F(1, 2), F(1, 2)), F(3, 2), 8))


# ---- associated Jacobi --------------------------------------------------------------------


def test_jacobi_assoc_pipelines():
    res = jacobi_assoc(JacobiParams(2, F(1, 2), 1), 1, 10)
    all_pass(res.checks)
    nested_pass(jacobi_family, JacobiParams(2, F(1, 2), 1), 10)


def test_jacobi_assoc_integer_two_tails():
    res = jacobi_assoc(JacobiParams(2, F(1, 2), 1), 2, 10)
    all_pass(res.checks)
    nested_pass(jacobi_family, JacobiParams(2, F(1, 2), 1), 10)


def test_jacobi_assoc_c_zero_hypergeometric_collapse():
    res = jacobi_assoc(JacobiParams(2, F(1, 2), 1), 0, 10)
    all_pass(res.checks)
    nested_pass(jacobi_family, JacobiParams(2, F(1, 2), 1), 10)


def test_jacobi_assoc_rational_c():
    res = jacobi_assoc(JacobiParams(F(1, 3), F(2, 5), F(1, 2)), F(3, 2), 10)
    all_pass(res.checks)
    nested_pass(jacobi_family, JacobiParams(F(1, 3), F(2, 5), F(1, 2)), 10)


# ---- associated Wilson ----------------------------------------------------------------------


def test_wilson_assoc_generic():
    res = wilson_assoc(WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), F(1, 4)), F(3, 2), 12)
    all_pass(res.checks)
    u = res.gop.inverse() @ OpMatrix.x_op(res.gop.nw) @ res.gop
    up, down = u.band_profile(12)
    assert up <= 1 and down <= 1


def test_wilson_assoc_reductions():
    res = wilson_assoc(WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), F(1, 4)), 0, 10)
    all_pass(res.checks)
    nested_pass(wilson_family, WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), F(1, 4)), 10)
    res_h0 = wilson_assoc(WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), 0), F(3, 2), 10)
    all_pass(res_h0.checks)
    nested_pass(jacobi_assoc, JacobiParams(2, F(1, 3), F(1, 5)), F(3, 2), 10)
    nested_pass(jacobi_family, JacobiParams(2, F(1, 3), F(1, 5)), 10)


def factorization_column(ells, n, order):
    """y^n / ((1+y ell_0) ... (1+y ell_n)), the displayed column factorization,
    by multiplying out the denominator and dividing once."""
    den = TruncSeries.one(order)
    for k in range(n + 1):
        den = (den * TruncSeries.from_polynomial([1, ells[k]], order)).truncate(order)
    return (1 / den).shift_up(n).truncate(order)


def apply_factorial_bar_inverse(op_inv_bar, s):
    """theta! bar(T) theta!^(-1) applied to a series, via borel/laplace: with
    T = C2^(-1) from inverse(), the reference route for the Newton expansion."""
    return op_inv_bar.apply_series(s.borel()).laplace()


def test_factorization_column_values():
    # y^1/((1+y)(1+2y)) = y(1 - 3y + 7y^2 - 15y^3 + ...)
    got = factorization_column([F(1), F(2)], 1, 5)
    assert got.coeffs[:5] == (0, 1, -3, 7, -15)
    assert newton_expansion(TruncSeries.from_polynomial([0, 1], 5), [F(1), F(2)] + [F(9)] * 4) == got


shift_values = st.one_of(st.just(F(0)), st.fractions(-4, 4, max_denominator=5))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_newton_expansion_matches_the_inverse_route(data):
    """The Horner expansion equals theta! bar(C2^(-1)) theta!^(-1) applied
    through the inverse, for shifts with zeros and negatives and a series
    known to order nw - 1 (as the build gives it) or nw; each unit series
    gives its displayed column y^n / prod_{k<=n} (1 + y ell_k)."""
    nw = data.draw(st.integers(1, 24), label="nw")
    ells = data.draw(st.lists(shift_values, min_size=nw + 1, max_size=nw + 1), label="ells")
    order = data.draw(st.sampled_from([nw - 1, nw]), label="order")
    s = TruncSeries(data.draw(st.lists(shift_values, min_size=order + 1, max_size=order + 1), label="s"))
    bar_inv = OpMatrix.shifted_product(ells, nw).inverse().bar()
    assert newton_expansion(s, ells) == apply_factorial_bar_inverse(bar_inv, s)
    for n in range(order + 1):
        unit = TruncSeries.from_polynomial([0] * n + [1], order)
        assert newton_expansion(unit, ells) == factorization_column(ells, n, order)


WILSON = WilsonParams(F(1, 3), F(2, 5), F(3, 7), F(1, 4), F(2, 9))
WILSON_ARGV = ["assoc", "wilson", "--c", "3/2", "--params", "lambda=1/3,a=2/5,r=3/7,rtilde=1/4,h=2/9", "--order", "12"]


def factorization(res):
    return next(c for c in res.checks if c.name == "column factorization of the shift operator")


def planted_expansion(monkeypatch, k, staged=True):
    """Make wilson_assoc's expansion wrong: staged coefficient k off by 1/7,
    or, with staged=False, the expansion run over ell_k + 1."""
    expand = associated.newton_expansion

    def planted(s, ells):
        if not staged:
            return expand(s, [v + (i == k) for i, v in enumerate(ells)])
        coeffs = list(expand(s, ells).coeffs)
        coeffs[k] += F(1, 7)
        return TruncSeries(coeffs)

    monkeypatch.setattr(associated, "newton_expansion", planted)


@pytest.mark.parametrize("k", [13, 15])
def test_planted_staged_coefficient_fails_the_crossed_check(k, monkeypatch, capsys):
    """At order 12 the expansion runs to order 15.  One wrong staged
    coefficient k past the order fails the crossed check at column k (C2
    transposed is unit triangular) and no other check, and the CLI exits 1."""
    assert factorization(wilson_assoc(WILSON, F(3, 2), 12)).passed
    planted_expansion(monkeypatch, k)
    res = wilson_assoc(WILSON, F(3, 2), 12)
    assert [(c.name, c.witness) for c in res.checks if not c.passed] == [
        ("column factorization of the shift operator", f"column {k}")
    ]
    assert main(WILSON_ARGV) == 1
    capsys.readouterr()


def test_planted_shift_value_fails_the_crossed_check(monkeypatch):
    """An expansion over a wrong ell_k agrees with C2 through column k and
    fails at column k + 1, the first column of C2 that reads ell_k."""
    planted_expansion(monkeypatch, 14, staged=False)
    assert factorization(wilson_assoc(WILSON, F(3, 2), 12)).witness == "column 15"


@pytest.mark.parametrize("staged, column", [(True, 5), (False, 6)])
def test_a_planted_fault_through_the_order_fails_the_tridiagonal_flag(staged, column, monkeypatch, capsys):
    """A wrong staged coefficient or shift value at k = 5 <= order breaks the
    raising operator's band in the column where the crossed check fails
    (k + 1 for a shift value): the tridiagonal flag fails with the reader's
    fault as its witness, and the CLI exits 1 with nothing on stderr."""
    planted_expansion(monkeypatch, 5, staged)
    failed = {c.name: c.witness for c in wilson_assoc(WILSON, F(3, 2), 12).checks if not c.passed}
    assert failed["shifted raising operator tridiagonal"] == f"entry outside band at (0,{column})"
    assert failed["column factorization of the shift operator"] == f"column {column}"
    assert main(WILSON_ARGV) == 1
    assert capsys.readouterr().err == ""


# ---- additivity across the explicit operators --------------------------------------------------


def test_assoc_recurrence_additivity_via_operators():
    p = ShefferParams(F(1, 2), F(2, 3), F(3, 5))
    res = ultra_assoc(p, F(1, 2), 10)
    all_pass(res.checks)
    nested_pass(ultraspherical_family, p, 10)
    one = res.recurrence
    fam = ultraspherical_family(p, 10)
    all_pass(fam.checks)
    closed = fam.closed_form
    two = closed.assoc(F(1, 4)).assoc(F(1, 4))
    for n in range(1, 6):
        assert one.b_at(n) == two.b_fn(n)
        assert one.a_at(n) == two.a_fn(n)


# ---- one construction path ---------------------------------------------------------------


def test_no_builder_runs_another_builder(monkeypatch):
    """A build that needs another family's operator calls its operator
    function, never that family's builder.  With every *_family and *_assoc
    name in families and associated replaced by a stub that raises, the
    assoc builders, the Wilson h = 0 reduction and the Jacobi differential
    operator still build with every check passing.  The one nesting allowed,
    hahn_family -> ultraspherical_family (Hahn reports the ultraspherical
    checks as its own), is not built here."""
    import umbral.associated as associated
    import umbral.families as families

    def stub(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"nested builder call: {name}")
        return raising

    builders = {}
    for module in (families, associated):
        for name in dir(module):
            if name.endswith(("_family", "_assoc")) and callable(getattr(module, name)):
                builders[name] = getattr(module, name)
                monkeypatch.setattr(module, name, stub(name))
    wilson_h0 = WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), 0)
    for c in (0, 1):
        all_pass(builders["sheffer_assoc"](ShefferParams(F(1, 2), F(1, 3), F(2, 5)), c, 8).checks)
        all_pass(builders["ultra_assoc"](ShefferParams(F(1, 3), F(1, 2), F(1, 4)), c, 8).checks)
        all_pass(builders["jacobi_assoc"](JacobiParams(F(1, 3), F(2, 5), F(3, 7)), c, 8).checks)
        all_pass(builders["wilson_assoc"](wilson_h0, c, 8).checks)
    all_pass(builders["wilson_family"](wilson_h0, 8).checks)
    all_pass(families.jacobi_diffeq_op(JacobiParams(2, F(1, 2), 1), 8)[2])


@settings(max_examples=100, deadline=None)
@given(st.fractions(-25, 3, max_denominator=3), st.integers(0, 24))
def test_guard_shift_matches_the_loop(c, nw):
    def loop():
        for k in range(1, nw + 1):
            if c + k == 0:
                raise SingularParams("c+k", f"k={k}")
        return c

    def outcome(fn, *args):
        try:
            return fn(*args)
        except SingularParams as e:
            return e.guard, str(e)

    assert outcome(guard_shift, c, nw) == outcome(loop)
