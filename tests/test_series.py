from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral.checks import series_check
from umbral.errors import (
    CompositionNonNilpotent,
    DivisionByNonUnit,
    NonUnitBase,
    NotReversible,
)
from umbral.series import (
    TruncSeries,
    exp_series,
    geometric_series,
    log1p_series,
    riccati_series,
    solve_autonomous_ode,
    t_transform,
)


# ---- independent oracles -------------------------------------------------

def bernoulli_quotient_oracle(order):
    """Long division of y by (e^y - 1), done directly on coefficient lists."""
    # e^y - 1 shifted down by one: denominator d_k = 1/(k+1)!
    fact = [1]
    for i in range(1, order + 2):
        fact.append(fact[-1] * i)
    den = [F(1, fact[k + 1]) for k in range(order + 1)]
    num = [F(1)] + [F(0)] * order
    out = []
    for k in range(order + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def catalan_oracle(n):
    cats = [1]
    for m in range(n):
        cats.append(sum(cats[i] * cats[m - i] for i in range(m + 1)))
    return cats


def binomial_half_oracle(order):
    """Coefficients of (1+y)^(1/2) via the falling-factorial product."""
    out, acc = [F(1)], F(1)
    for k in range(1, order + 1):
        acc = acc * (F(1, 2) - (k - 1)) / k
        out.append(acc)
    return out


def tangent_oracle(order):
    """tan coefficients from t' = 1 + t^2 solved by hand-rolled recursion."""
    t = [F(0)] * (order + 1)
    for k in range(order):
        sq = sum(t[i] * t[k - i] for i in range(k + 1))
        t[k + 1] = ((1 if k == 0 else 0) + sq) / (k + 1)
    return t


# ---- arithmetic ------------------------------------------------------------

def test_mul_difference_of_squares():
    one_plus = TruncSeries.from_polynomial([1, 1], 6)
    one_minus = TruncSeries.from_polynomial([1, -1], 6)
    assert one_plus * one_minus == TruncSeries.from_polynomial([1, 0, -1], 6)


def test_div_geometric():
    one = TruncSeries.one(8)
    g = one / TruncSeries.from_polynomial([1, -1], 8)
    assert g == geometric_series(1, 8)


def test_div_bernoulli_numbers():
    order = 4
    # cancelling the shared zero at y=0 costs one order, so feed order+1
    y = TruncSeries.x(order + 1)
    em1 = exp_series(1, order + 1) - 1
    got = y / em1
    expected = bernoulli_quotient_oracle(order)
    assert expected[:3] == [F(1), F(-1, 2), F(1, 12)]  # hand-checked anchor
    assert got.order == order
    assert list(got.coeffs) == expected


def test_div_by_non_unit_raises():
    with pytest.raises(DivisionByNonUnit):
        TruncSeries.one(4) / TruncSeries.x(4)
    with pytest.raises(DivisionByNonUnit):
        TruncSeries.from_polynomial([0, 1, 2], 4) / TruncSeries.from_polynomial([0, 0, 1], 4)
    with pytest.raises(DivisionByNonUnit):
        TruncSeries.x(4) / TruncSeries.zero(4)


def test_min_order_discipline():
    a = TruncSeries.one(10)
    b = TruncSeries.one(4)
    assert (a + b).order == 4
    assert (a * b).order == 4


# ---- composition / reversion ----------------------------------------------

def test_compose_exp_log_pair():
    n = 10
    f = exp_series(1, n) - 1
    g = log1p_series(1, n)
    assert f.compose(g) == TruncSeries.x(n)
    assert g.compose(f) == TruncSeries.x(n)


def test_compose_moebius_pair():
    n = 9
    f = TruncSeries.x(n) / TruncSeries.from_polynomial([1, -1], n)
    g = TruncSeries.x(n) / TruncSeries.from_polynomial([1, 1], n)
    assert f.compose(g) == TruncSeries.x(n)


def test_compose_direct_expansion():
    f = TruncSeries.from_polynomial([0, 0, 1], 4)        # y^2
    g = TruncSeries.from_polynomial([0, 1, 1], 4)        # y + y^2
    assert f.compose(g) == TruncSeries.from_polynomial([0, 0, 1, 2, 1], 4)


def test_compose_nonnilpotent_raises():
    with pytest.raises(CompositionNonNilpotent):
        TruncSeries.x(4).compose(TruncSeries.one(4))


def test_reverse_moebius():
    n = 8
    f = TruncSeries.x(n) / TruncSeries.from_polynomial([1, -1], n)
    assert f.reverse() == TruncSeries.x(n) / TruncSeries.from_polynomial([1, 1], n)


def test_reverse_exp_minus_one():
    n = 8
    assert (exp_series(1, n) - 1).reverse() == log1p_series(1, n)


def test_reverse_catalan():
    n = 7
    f = TruncSeries.from_polynomial([0, 1, -1], n)  # y - y^2
    cats = catalan_oracle(n)
    assert list(f.reverse().coeffs) == [F(0)] + [F(c) for c in cats[: n]]


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(-5, 5, max_denominator=6).filter(lambda v: v != 0),
    st.lists(st.fractions(-5, 5, max_denominator=6), min_size=0, max_size=8),
)
def test_y_over_f_is_the_reciprocal_of_f_over_y(c1, rest):
    f = TruncSeries([F(0), c1, *rest])
    assert f.y_over_f() == 1 / (f / TruncSeries.x(f.order))
    with pytest.raises(NotReversible):
        (f + 1).y_over_f()  # f(0) != 0
    with pytest.raises(NotReversible):
        (f - c1 * TruncSeries.x(f.order)).y_over_f()  # f'(0) = 0


def test_reverse_guards():
    with pytest.raises(NotReversible):
        TruncSeries.one(4).reverse()
    with pytest.raises(NotReversible):
        TruncSeries.from_polynomial([0, 0, 1], 4).reverse()


# ---- fractional powers ------------------------------------------------------

def test_pow_fraction_binomial_series():
    n = 6
    f = TruncSeries.from_polynomial([1, 1], n)
    assert list(f.pow_fraction(F(1, 2)).coeffs) == binomial_half_oracle(n)


def test_pow_zero():
    f = TruncSeries.from_polynomial([1, 3, -2], 5)
    assert f.pow_fraction(0) == TruncSeries.one(5)


def test_pow_round_trip():
    f = TruncSeries([1, F(1, 3), F(-2, 7), 1, 0, F(5, 2)])
    assert f.pow_fraction(F(1, 3)).pow_fraction(3) == f


def test_pow_non_unit_raises():
    for lead, alpha in ((2, F(1, 2)), (-1, F(1, 3)), (0, F(-2)), (F(1, 10**40), F(0))):
        with pytest.raises(NonUnitBase):
            TruncSeries.from_polynomial([lead, 1], 4).pow_fraction(alpha)


# ---- Riccati-type solutions --------------------------------------------------

def test_riccati_tangent():
    got = riccati_series(1, 0, 1, 6)
    assert list(got.coeffs) == tangent_oracle(6)
    assert got.coefficient(3) == F(1, 3) and got.coefficient(5) == F(2, 15)


def test_riccati_exponential_branch():
    n = 8
    assert riccati_series(1, 1, 0, n) == exp_series(1, n) - 1


def test_riccati_square_case_moebius_inverse():
    # 4b = lam*a^2 with lam=2, a=1/2, b=1/8: f' = (1 + f/2)^2,
    # so the reverse of f is y/(1 + y/2).
    n = 8
    f = riccati_series(2, F(1, 2), F(1, 8), n)
    expected = TruncSeries.x(n) / TruncSeries.from_polynomial([1, F(1, 2)], n)
    assert f.reverse() == expected
    assert f == expected.reverse()


# ---- f/f' and its inverse ----------------------------------------------------

def test_t_transform_exp():
    n = 8
    f = exp_series(1, n) - 1
    tf = t_transform(f)
    omega = tf.reverse()
    # f/f' = 1 - e^(-y)
    assert tf == -(exp_series(-1, n) - 1)
    # omega = -log(1 - t)
    assert omega == -log1p_series(-1, n)


def test_t_transform_identity():
    n = 6
    tf = t_transform(TruncSeries.x(n))
    omega = tf.reverse()
    assert tf == TruncSeries.x(n) and omega == TruncSeries.x(n)


def test_t_transform_jacobi_case():
    # f with reverse y/(1 + y/2): f/f' = y - y^2/2 and
    # omega = 1 - sqrt(1 - 2t) = t + t^2/2 + t^3/2 + ...
    n = 8
    f = riccati_series(2, F(1, 2), F(1, 8), n)
    tf = t_transform(f)
    omega = tf.reverse()
    assert tf == TruncSeries.from_polynomial([0, 1, F(-1, 2)], n)
    sqrt = TruncSeries.from_polynomial([1, -2], n).pow_fraction(F(1, 2))
    assert omega == 1 - sqrt
    assert omega.coeffs[1:4] == (F(1), F(1, 2), F(1, 2))


# ---- property-based invariants ------------------------------------------------

small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=5
)


@st.composite
def reversible_series(draw, order=8):
    lead = draw(small_fractions.filter(lambda v: v != 0))
    rest = draw(st.lists(small_fractions, min_size=order - 1, max_size=order - 1))
    return TruncSeries([F(0), lead] + rest)


@settings(max_examples=40, deadline=None)
@given(reversible_series())
def test_reverse_is_involutive(f):
    assert f.reverse().reverse() == f


@settings(max_examples=40, deadline=None)
@given(reversible_series())
def test_reverse_composes_to_identity(f):
    assert f.compose(f.reverse()) == TruncSeries.x(f.order)


@st.composite
def unit_series(draw, order=8):
    rest = draw(st.lists(small_fractions, min_size=order, max_size=order))
    return TruncSeries([F(1)] + rest)


@settings(max_examples=30, deadline=None)
@given(unit_series(), small_fractions, small_fractions)
def test_pow_fraction_homomorphism(f, alpha, beta):
    lhs = f.pow_fraction(alpha) * f.pow_fraction(beta)
    assert lhs == f.pow_fraction(alpha + beta)


@settings(max_examples=30, deadline=None)
@given(small_fractions, small_fractions, small_fractions)
def test_riccati_satisfies_its_equation(lam, a, b):
    n = 9
    f = riccati_series(lam, a, b, n)
    residual = f.derivative() - (1 + lam * a * f + lam * b * f * f).truncate(n - 1)
    assert residual == TruncSeries.zero(n - 1)


@settings(max_examples=30, deadline=None)
@given(reversible_series())
def test_double_t_transform_closed_form(f):
    # applying the transform twice agrees with f f' / (f'^2 - f f'')
    if f.coeffs[1] != 1:
        f = f / f.coeffs[1]
    tf = t_transform(f)
    tf2 = t_transform(tf.truncate(f.order))
    d1 = f.derivative()
    d2 = d1.derivative()
    num = f * d1
    den = d1 * d1 - f * d2
    direct = ((num.shift_down(1)) / den).shift_up(1)
    assert tf2.agrees_with(direct)


# ---- serialization -------------------------------------------------------------

def test_json_round_trip():
    f = TruncSeries([F(1), F(-1, 2), F(3, 7)])
    data = f.to_json()
    assert data == {"order": 2, "coeffs": ["1", "-1/2", "3/7"]}
    assert TruncSeries.from_json(data) == f


# ---- differential test: the integer convolution against plain Fraction loops ----

wide_fractions = st.one_of(
    st.just(F(0)),
    small_fractions,
    st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)


def reference_mul(xs, ys):
    """Truncated Cauchy product, one Fraction operation at a time."""
    n = min(len(xs), len(ys)) - 1
    return [sum((xs[i] * ys[k - i] for i in range(k + 1)), F(0)) for k in range(n + 1)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(wide_fractions, min_size=1, max_size=12),
    st.lists(wide_fractions, min_size=1, max_size=12),
)
def test_mul_matches_fraction_convolution(xs, ys):
    f, g = TruncSeries(xs), TruncSeries(ys)
    expected = reference_mul(xs, ys)
    for prod in (f * g, g * f):
        assert prod.order == min(f.order, g.order)
        assert list(prod.coeffs) == expected
        assert [str(c) for c in prod.coeffs] == [str(c) for c in expected]



def reference_div(xs, gs):
    """Truncated series quotient by back-substitution, one Fraction at a time."""
    n = min(len(xs), len(gs)) - 1
    out = []
    for k in range(n + 1):
        acc = xs[k]
        for j in range(1, k + 1):
            if gs[j] != 0:
                acc -= gs[j] * out[k - j]
        out.append(acc / gs[0])
    return out


def reference_pow_fraction(fs, alpha):
    """f^alpha for f_0 = 1 from h' f = alpha f' h, one Fraction at a time."""
    n = len(fs) - 1
    out = [F(1)] + [F(0)] * n
    for m in range(1, n + 1):
        acc = F(0)
        for k in range(m):
            if fs[k + 1] != 0:
                acc += alpha * (k + 1) * fs[k + 1] * out[m - 1 - k]
        for k in range(m - 1):
            if out[k + 1] != 0:
                acc -= (k + 1) * out[k + 1] * fs[m - 1 - k]
        out[m] = acc / m
    return out


def assert_canonical(series, expected):
    assert list(series.coeffs) == expected
    assert [str(c) for c in series.coeffs] == [str(c) for c in expected]


@st.composite
def divisors(draw):
    """Dense or sparse divisors with a nonzero constant of either sign."""
    lead = draw(wide_fractions.filter(lambda v: v != 0))
    rest = draw(st.lists(st.one_of(st.just(F(0)), wide_fractions), max_size=11))
    return [lead] + rest


@settings(max_examples=80, deadline=None)
@given(st.lists(wide_fractions, min_size=1, max_size=12), divisors())
def test_div_matches_fraction_back_substitution(xs, gs):
    quot = TruncSeries(xs) / TruncSeries(gs)
    assert quot.order == min(len(xs), len(gs)) - 1
    assert_canonical(quot, reference_div(xs, gs))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(wide_fractions, min_size=1, max_size=10), divisors())
def test_div_zero_constant_term_cancels(v, xs, gs):
    # y^v a / (y^v g) = a / g once the common power of y is cancelled
    quot = TruncSeries([F(0)] * v + xs) / TruncSeries([F(0)] * v + gs)
    assert quot.order == min(len(xs), len(gs)) - 1
    assert_canonical(quot, reference_div(xs, gs))


alphas = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(wide_fractions, max_size=9), alphas)
def test_pow_fraction_matches_fraction_recursion(rest, alpha):
    fs = [F(1)] + rest
    assert_canonical(TruncSeries(fs).pow_fraction(alpha), reference_pow_fraction(fs, alpha))


def reference_reverse(fs):
    """Lagrange inversion [y^m] phi = (1/m) [y^(m-1)] (y/f)^m, with the
    powers of y/f taken one Fraction product at a time."""
    n = len(fs) - 1
    u = reference_div([F(1)] + [F(0)] * (n - 1), fs[1:])
    out = [F(0)] * (n + 1)
    power = [F(1)] + [F(0)] * (n - 1)
    for m in range(1, n + 1):
        power = reference_mul(power, u)
        out[m] = power[m - 1] / m
    return out


def reference_autonomous_ode(p, order):
    """f' = P(f), f(0) = 0: (k+1) f_{k+1} = [y^k] P(f), with P(f) evaluated
    by Horner's rule on the known coefficients for every k."""
    coeffs = [F(0)] * (order + 1)
    for k in range(order):
        acc = [p[-1]] + [F(0)] * k
        for c in reversed(p[:-1]):
            acc = reference_mul(acc, coeffs[: k + 1])
            acc[0] += c
        coeffs[k + 1] = acc[k] / (k + 1)
    return coeffs


@settings(max_examples=60, deadline=None)
@given(wide_fractions.filter(lambda v: v != 0), st.lists(wide_fractions, max_size=9))
def test_reverse_matches_fraction_powers(lead, rest):
    fs = [F(0), lead] + rest
    assert_canonical(TruncSeries(fs).reverse(), reference_reverse(fs))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(small_fractions, wide_fractions), min_size=1, max_size=4), st.integers(0, 8))
def test_autonomous_ode_matches_horner_recursion(p, order):
    assert_canonical(solve_autonomous_ode(p, order), reference_autonomous_ode(p, order))


def test_a_comparison_past_the_shorter_series_fails():
    # a series that ends before `through` has not shown agreement through it:
    # the check fails at its order + 1 and names both coefficients
    short, long = exp_series(1, 4), exp_series(1, 8)
    assert short.first_difference(long, 4) is None and short.agrees_with(long)
    assert short.first_difference(long, 6) == 5 and long.first_difference(short, 6) == 5
    check = series_check("planted short block", short, long, 6)
    assert (check.passed, check.witness) == (False, "series ends at coefficient 4, short of coefficient 6")
    # a difference inside the shorter series is still the one reported
    bent = TruncSeries(list(short.coeffs[:3]) + [F(1, 7)] + list(short.coeffs[4:]))
    assert series_check("", bent, long, 6).witness == "coefficient 3: 1/7 != 1/6"
