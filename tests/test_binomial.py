from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from umbral.binomial import (
    asym_compare,
    falling_factorial_instance,
    frac_index_p,
    geometric_instance,
    lagrange_forms,
    lowering_check,
)
from umbral.errors import EvaluationDomain
from umbral.indexfn import Poly
from umbral.opalg import OpMatrix
from umbral.series import TruncSeries, exp_series, t_transform
from umbral.verify import RunConfig, run_suite


def exp_minus_one(order):
    return exp_series(1, order) - 1


def geometric_base(order):
    return TruncSeries.from_function(lambda i: 0 if i == 0 else 1, order)


# ---- inversion forms --------------------------------------------------------


def test_lagrange_identity_base():
    f = TruncSeries.x(13)
    checks = lagrange_forms(f, 4, 12)
    assert [c.name for c in checks] == [f"inversion form {k}, degree {n}" for n in range(1, 5) for k in (1, 2)]
    assert all(c.passed for c in checks)


def test_lagrange_falling_factorials():
    f = exp_minus_one(13)
    checks = lagrange_forms(f, 3, 12)
    assert all(c.passed for c in checks)


def test_lagrange_geometric_small():
    # (D/f(D))^2 = (1-D)^2 gives x(1-D)^2 x = x^2 - 2x
    f = geometric_base(13)
    assert all(c.passed for c in lagrange_forms(f, 2, 12))
    cf = OpMatrix.umbral_compose(f.truncate(8), 8)
    assert cf.column_poly(2) == Poly([0, -2, 1])


def test_lagrange_many_degrees():
    for f in (exp_minus_one(13), geometric_base(13)):
        checks = lagrange_forms(f, 10, 12)
        assert len(checks) == 20 and all(c.passed for c in checks)


def test_the_binomial_suite_builds_one_composition_operator_per_base(monkeypatch):
    """Each base's reference C_f is built once for all ten degrees."""
    built, real = [], OpMatrix.umbral_compose
    monkeypatch.setattr(OpMatrix, "umbral_compose", classmethod(lambda cls, f, nw: built.append(nw) or real(f, nw)))
    checks = run_suite("binomial", RunConfig(order=12, seed=0, samples=2))
    assert built == [12, 12]
    assert len(checks) == 9 and all(c.passed for c in checks)


# ---- fractional index --------------------------------------------------------


def test_frac_index_s_one_is_linear():
    exp_f = frac_index_p(exp_minus_one(12), 1, 8)
    assert exp_f[0] == 1
    assert all(c == 0 for c in exp_f[1:])


def test_frac_index_integer_reduction():
    got = frac_index_p(exp_minus_one(12), 3, 8)
    # (x)_3 = x^3 - 3x^2 + 2x: descending coefficients 1, -3, 2, 0...
    assert got[:4] == (F(1), F(-3), F(2), F(0))
    assert all(c == 0 for c in got[3:])


def test_frac_index_half():
    got = frac_index_p(exp_minus_one(12), F(1, 2), 6)
    assert got[0] == 1
    assert got[1] == F(1, 8)  # (-1/4) * (-1/2)


def test_frac_index_matches_operator_columns():
    f = exp_minus_one(14)
    cf = OpMatrix.umbral_compose(f.truncate(12), 12)
    for s in range(1, 9):
        exp_f = frac_index_p(f, s, 10)
        col = cf.column_poly(s)
        for k, c in enumerate(exp_f):
            if s - k < 0:
                assert c == 0
            else:
                assert c == col.coeffs[s - k]


# ---- lowering relation -----------------------------------------------------------


def test_lowering_integer_case():
    assert all(c.passed for c in lowering_check(exp_minus_one(14), 4, 8))


def test_lowering_zero_case():
    assert all(c.passed for c in lowering_check(exp_minus_one(14), 0, 8))


@pytest.mark.parametrize("s", [F(1, 2), F(3, 2), F(5, 3), F(-2, 5)])
def test_lowering_fractional(s):
    assert all(c.passed for c in lowering_check(exp_minus_one(14), s, 8))


def test_lowering_geometric():
    assert all(c.passed for c in lowering_check(geometric_base(14), F(1, 2), 8))


# ---- asymptotic instances ----------------------------------------------------------


def test_instance_series_cross_check():
    """Closed-form evaluators against the series engine at alpha = 1/10.

    The omega coefficients of both instances are bounded by 4^k, so the
    truncation remainder at 1/10 is below sum_{k>N} (2/5)^k.
    """
    for make in (falling_factorial_instance, geometric_instance):
        inst = make()
        order = 16
        f = inst.base_series(order)
        omega = t_transform(f).reverse()
        alpha = F(1, 10)
        bound = Decimal(2) / 5 ** Decimal(1)
        bound = (Decimal(2) / Decimal(5)) ** (order + 1) / (1 - Decimal(2) / Decimal(5))
        with localcontext() as ctx:
            ctx.prec = 40
            closed = inst.omega(Decimal(1) / Decimal(10))
            val = Poly(omega.coeffs)(alpha)
            series_val = Decimal(val.numerator) / Decimal(val.denominator)
            assert abs(closed - series_val) < bound
            # derivative evaluator against the differentiated series
            closed_d1 = inst.omega_d1(Decimal(1) / Decimal(10))
            vald = Poly(omega.derivative().coeffs)(alpha)
            series_d1 = Decimal(vald.numerator) / Decimal(vald.denominator)
            assert abs(closed_d1 - series_d1) < 20 * bound


def test_integral_evaluator_against_series():
    """Termwise integral of the exact series of ln f'(omega(t)) at alpha=1/10."""
    for make in (falling_factorial_instance, geometric_instance):
        inst = make()
        order = 18
        f = inst.base_series(order)
        fprime = f.derivative()
        omega = t_transform(f).reverse()
        logf = (fprime.truncate(order - 1).compose(omega.truncate(order - 1))).log()
        anti = logf.integral()
        alpha = F(1, 10)
        val = Poly(anti.coeffs)(alpha)
        with localcontext() as ctx:
            ctx.prec = 40
            closed = inst.log_weight_integral(Decimal(1) / Decimal(10))
            series_val = Decimal(val.numerator) / Decimal(val.denominator)
            assert abs(closed - series_val) < Decimal("1e-6")


def test_g4_matches_series_expansion():
    # a(1-4a)^(1/2) = a - 2a^2 - 2a^3 - 4a^4 - 10a^5 ...; 4th derivative at 0
    inst = geometric_instance()
    with localcontext() as ctx:
        ctx.prec = 30
        assert inst.alpha_over_omega_d1_d4(Decimal(0)) == -96


def test_falling_factorial_levels():
    inst = falling_factorial_instance()
    r0 = asym_compare(inst, F(1, 2), [40, 80], 0)
    est0 = Decimal(r0["order_estimate"])
    assert abs(est0) < Decimal("0.3")
    r1 = asym_compare(inst, F(1, 2), [40, 80], 1)
    est1 = Decimal(r1["order_estimate"])
    assert abs(est1 + 1) < Decimal("0.3")
    # the s^(-2) term of this instance vanishes identically (g'''' = 0), so
    # the level-2 residual already decays one order faster
    r2 = asym_compare(inst, F(1, 2), [40, 80], 2)
    est2 = Decimal(r2["order_estimate"])
    assert abs(est2 + 3) < Decimal("0.3")


def test_geometric_levels():
    inst = geometric_instance()
    for level in (1, 2, 3):
        r = asym_compare(inst, F(1, 5), [40, 80], level)
        est = Decimal(r["order_estimate"])
        assert abs(est + level) < Decimal("0.3")


def test_asym_guards():
    inst = geometric_instance()
    with pytest.raises(EvaluationDomain):
        asym_compare(inst, F(1, 3), [10], 1)  # outside sqrt radius
    with pytest.raises(EvaluationDomain):
        asym_compare(inst, F(1, 10), [10], 7)
    # a repeated index would divide by ln(s2/s1) = 0 in the rate estimate
    for bad in ([0, 40], [40, -1], [40, 40], [40, 80, 40]):
        with pytest.raises(EvaluationDomain):
            asym_compare(inst, F(1, 5), bad, 1)
        with pytest.raises(EvaluationDomain):
            asym_compare(falling_factorial_instance(), F(1, 2), bad, 1)


def test_exact_poly_values():
    inst = falling_factorial_instance()
    assert inst.exact_poly_value(3, F(5)) == 5 * 4 * 3
    geo = geometric_instance()
    # p_2 = x^2 - 2x for y/(1-y)
    assert geo.exact_poly_value(2, F(7)) == 49 - 14
    # p_0 = 1 for every binomial family, at any point including 0
    for x in (F(0), F(7), F(-2, 3)):
        assert geo.exact_poly_value(0, x) == 1
        assert inst.exact_poly_value(0, x) == 1


def test_report_shape():
    inst = falling_factorial_instance()
    r = asym_compare(inst, F(1, 2), [20, 40], 1, digits=40)
    assert r["level"] == 1 and len(r["rows"]) == 2
    assert set(r["rows"][0]) == {"s", "exact", "approx", "residual"}
