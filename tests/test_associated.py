from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral.associated import (
    ASSOC_MARGIN,
    change_of_variable_check,
    factorization_column,
    guard_shift,
    jacobi_assoc,
    long_division_checks,
    lowered_weights,
    sheffer_assoc,
    splitting_check,
    ultra_assoc,
    wilson_assoc,
)
from umbral.errors import DiagSingular, SingularParams
from umbral.families import (
    JacobiParams,
    ShefferParams,
    WilsonParams,
    jacobi_family,
    sheffer_family,
    ultraspherical_family,
    wilson_family,
)
from umbral.indexfn import IndexRatio, Poly, affine
from umbral.opalg import OpMatrix
from umbral.orthocore import assoc_recurrence
from umbral.series import TruncSeries, exp_series


def all_pass(checks):
    bad = [(c.name, c.witness) for c in checks if not c.passed]
    assert not bad, bad


def nested_pass(build, *args):
    """An assoc build reuses its base family's operator chain over the same
    core, not that family's checks; build the base family (or, for the
    Wilson reductions, the family whose operator is reused) alone, with the
    assoc margin, and require its checks."""
    all_pass(build(*args, margin=ASSOC_MARGIN).checks)


def test_lowered_weights():
    p = JacobiParams(F(1, 3), F(2, 5), F(3, 7))
    c = F(3, 2)
    rising = affine(c, 1).products(6)
    lowered = p.ratio.products(6, c - 1)
    got = lowered_weights(p.ratio, c, 6)
    assert got == tuple(rising[n] * lowered[n] for n in range(6))
    # at c = 0 the rising factor kills everything past the constant, even
    # when the ratio has a pole at -1 (lambda = 1)
    pole = JacobiParams(1, F(1, 2), F(1, 3))
    assert lowered_weights(pole.ratio, 0, 5) == (1, 0, 0, 0, 0)
    with pytest.raises(DiagSingular):
        # 1 + lambda (c - 1) = 0
        lowered_weights(JacobiParams(2, F(1, 2), 1).ratio, F(1, 2), 5)

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
    base = assoc_recurrence(fam.closed_form, F(1, 2))
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


def test_factorization_column_values():
    # y^1/((1+y)(1+2y)) = y(1 - 3y + 7y^2 - 15y^3 + ...)
    got = factorization_column([F(1), F(2)], 1, 5)
    assert got.coeffs[:5] == (0, 1, -3, 7, -15)


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
