"""Integer storage of series and polynomials against plain Fraction code.

Every series and polynomial holds a positive denominator and a tuple of
integer numerators in lowest terms.  The reference functions below are the
one-Fraction-at-a-time implementations those integer kernels replaced; the
tests check that each kernel gives exactly their values, and that the
storage is canonical: equal values have equal storage and equal hashes.
"""
import math
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from umbral.errors import DiagSingular
from umbral.indexfn import IndexRatio, Poly
from umbral.opalg import OpMatrix
from umbral.orthocore import Recurrence, inner_product, moments_from_recurrence, polys_from_recurrence
from umbral.series import (
    TruncSeries,
    exp_series,
    geometric_series,
    log1p_series,
    riccati_series,
    solve_autonomous_ode,
)

# zero, units of either sign, small and wide fractions with unrelated denominators
rationals = st.one_of(
    st.sampled_from([F(0), F(1), F(-1)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)
coeff_lists = st.lists(rationals, min_size=1, max_size=9)
scalars = st.one_of(rationals, st.integers(-7, 7))


def assert_canonical(x, expected):
    """x holds exactly the values `expected`, in canonical storage."""
    assert type(x.nums) is tuple and all(type(v) is int for v in x.nums)
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    assert list(x.coeffs) == list(expected)
    assert [str(c) for c in x.coeffs] == [str(F(c)) for c in expected]


# ---- Fraction references -----------------------------------------------------


def ref_mul(xs, ys, n):
    return [sum((xs[i] * ys[k - i] for i in range(k + 1)), F(0)) for k in range(n + 1)]


def ref_compose(fs, gs):
    n = min(len(fs), len(gs)) - 1
    acc = [fs[n]] + [F(0)] * n
    for i in range(n - 1, -1, -1):
        acc = ref_mul(acc, gs, n)
        acc[0] += fs[i]
    return acc


def ref_exp(gs):
    n = len(gs) - 1
    out = [F(1)] + [F(0)] * n
    for m in range(1, n + 1):
        out[m] = sum(((m - i) * gs[m - i] * out[i] for i in range(m)), F(0)) / m
    return out


def ref_log(fs):
    n = len(fs) - 1
    out = [F(0)] * (n + 1)
    for m in range(1, n + 1):
        out[m] = (m * fs[m] - sum(((m - i) * out[m - i] * fs[i] for i in range(1, m)), F(0))) / m
    return out


def ref_poly(cs):
    cs = [F(c) for c in cs] or [F(0)]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def ref_poly_mul(ps, qs):
    out = [F(0)] * (len(ps) + len(qs) - 1)
    for i, a in enumerate(ps):
        for j, b in enumerate(qs):
            out[i + j] += a * b
    return ref_poly(out)


def ref_poly_at(ps, x):
    acc = F(0)
    for c in reversed(ps):
        acc = acc * x + c
    return acc


def ref_poly_compose(ps, qs):
    acc = [F(0)]
    for c in reversed(ps):
        acc = ref_poly_mul(acc, qs)
        acc[0] += c
    return ref_poly(acc)


# ---- the storage invariant ------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists)
def test_equal_values_have_equal_storage_and_hashes(xs, ys):
    for make in (TruncSeries, Poly):
        a, b = make(xs), make(ys)
        assert (a == b) == (list(a.coeffs) == list(b.coeffs))
        if a == b:
            assert (a.den, a.nums) == (b.den, b.nums) and hash(a) == hash(b)
    # the same values reached by another route: a product by 1 over a larger denominator
    s = TruncSeries(xs)
    assert s * F(7, 7) == s and hash(TruncSeries._make(s.den * 6, [6 * v for v in s.nums])) == hash(s)


def test_zero_and_trimmed_storage():
    assert (Poly([0, 0]).den, Poly([0, 0]).nums) == (1, (0,))
    assert (Poly([]).den, Poly([]).nums) == (1, (0,))
    p = Poly([F(1, 2), F(-3, 4), 0, 0])
    assert (p.den, p.nums) == (4, (2, -3))
    s = TruncSeries([0, F(2, 6), F(-4, 6), 0])
    assert (s.den, s.nums) == (3, (0, 1, -2, 0))
    assert TruncSeries.zero(3).nums == (0, 0, 0, 0) and TruncSeries.zero(3).den == 1
    assert Poly([1, 2]) != TruncSeries([1, 2]) and TruncSeries([1, 2]) != TruncSeries([1, 2, 0])


def test_the_fraction_view_is_built_on_first_read_and_kept():
    s = riccati_series(F(1, 3), F(2, 5), F(3, 7), 8)
    p = polys_from_recurrence(Recurrence((F(1, 2),) * 7, (F(2, 3),) * 6), 6).polys[5]
    for x in (s, p, s * s, p * p, s.truncate(5), p.shift(F(1, 3))):
        assert x._coeffs is None  # nothing has read it yet
        view = x.coeffs
        assert x.coeffs is view and x.coeffs is x.coeffs


def test_poly_stays_immutable():
    p = Poly([1, 2])
    for name in ("den", "nums", "_coeffs", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)


# ---- series operations against their references -------------------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists, scalars)
def test_series_ring_operations(xs, ys, c):
    f, g = TruncSeries(xs), TruncSeries(ys)
    n = min(len(xs), len(ys)) - 1
    assert_canonical(f + g, [xs[i] + ys[i] for i in range(n + 1)])
    assert_canonical(f - g, [xs[i] - ys[i] for i in range(n + 1)])
    assert_canonical(-f, [-x for x in xs])
    assert_canonical(f * c, [x * c for x in xs])
    assert_canonical(c * f, [x * c for x in xs])
    assert_canonical(f + c, [xs[0] + c] + xs[1:])
    assert_canonical(c - f, [c - xs[0]] + [-x for x in xs[1:]])
    if c != 0:
        assert_canonical(f / c, [x / c for x in xs])


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_series_compose(fs, rest):
    gs = [F(0)] + rest
    assert_canonical(TruncSeries(fs).compose(TruncSeries(gs)), ref_compose(fs, gs))


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.lists(scalars, min_size=9, max_size=9), scalars)
def test_series_transforms(xs, ws, c):
    f = TruncSeries(xs)
    n = len(xs) - 1
    fact = [math.factorial(i) for i in range(n + 1)]
    assert_canonical(f.weighted(ws), [x * w for x, w in zip(xs, ws)])
    assert_canonical(f.borel(), [x / fact[i] for i, x in enumerate(xs)])
    assert_canonical(f.laplace(), [x * fact[i] for i, x in enumerate(xs)])
    assert_canonical(f.derivative(), [i * xs[i] for i in range(1, n + 1)] or [F(0)])
    assert_canonical(f.integral(c), [F(c)] + [x / (i + 1) for i, x in enumerate(xs)])
    assert_canonical(f.shift_up(2), [F(0), F(0)] + xs)
    assert_canonical(f.truncate(n // 2), xs[: n // 2 + 1])


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_series_exp_and_log(rest):
    gs = [F(0)] + rest
    assert_canonical(TruncSeries(gs).exp(), ref_exp(gs))
    fs = [F(1)] + rest
    assert_canonical(TruncSeries(fs).log(), ref_log(fs))


@settings(max_examples=40, deadline=None)
@given(rationals, st.integers(0, 10))
def test_stock_series(c, order):
    acc, fact = F(1), 1
    expected_exp = []
    for i in range(order + 1):
        expected_exp.append(acc / fact)
        acc *= c
        fact *= i + 1
    assert_canonical(exp_series(c, order), expected_exp)
    assert_canonical(geometric_series(c, order), [c**i for i in range(order + 1)])
    assert_canonical(log1p_series(c, order), [F(0)] + [(-1) ** (i + 1) * c**i / i for i in range(1, order + 1)])


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(0, 8))
def test_series_comparison_finds_the_first_difference(xs, ys, through):
    # a series that ends before `through` differs at its end + 1
    f, g = TruncSeries(xs), TruncSeries(ys)
    known = min(len(xs), len(ys))
    n = min(known, through + 1)
    expected = next((i for i in range(n) if xs[i] != ys[i]), None if through < known else known)
    assert f.first_difference(g, through) == expected
    assert f.agrees_with(g, through) == (expected is None)
    assert f.agrees_with(TruncSeries(xs + ys))


def test_autonomous_ode_of_low_degree():
    assert_canonical(solve_autonomous_ode([F(2, 3)], 4), [0, F(2, 3), 0, 0, 0])
    assert_canonical(solve_autonomous_ode([1, F(1, 2)], 4), [0, 1, F(1, 4), F(1, 24), F(1, 192)])
    assert_canonical(solve_autonomous_ode([0, 5], 3), [0, 0, 0, 0])


# ---- polynomials against their references ----------------------------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists, scalars)
def test_poly_arithmetic(ps, qs, c):
    p, q = Poly(ps), Poly(qs)
    assert_canonical(p + q, ref_poly([a + b for a, b in zip_longest(ps, qs, fillvalue=F(0))]))
    assert_canonical(p - q, ref_poly([a - b for a, b in zip_longest(ps, qs, fillvalue=F(0))]))
    assert_canonical(p * c, ref_poly([a * c for a in ps]))
    assert_canonical(c * p, ref_poly([a * c for a in ps]))
    assert_canonical(p * q, ref_poly_mul(ref_poly(ps), ref_poly(qs)))
    assert_canonical(p + c, ref_poly([ps[0] + c] + ps[1:]))


@settings(max_examples=80, deadline=None)
@given(coeff_lists, rationals, st.integers(-6, 6))
def test_poly_horner_evaluation(ps, x, n):
    p = Poly(ps)
    for point in (x, n):
        value = p(point)
        assert type(value) is F and value == ref_poly_at(ps, F(point))


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.lists(rationals, min_size=1, max_size=4), rationals)
def test_poly_composition_shift_and_reflection(ps, qs, offset):
    p, q = Poly(ps), Poly(qs)
    assert_canonical(p(q), ref_poly_compose(ref_poly(ps), ref_poly(qs)))
    assert_canonical(p.shift(offset), ref_poly_compose(ref_poly(ps), [offset, F(1)]))
    deg = len(ref_poly(ps)) - 1
    assert_canonical(p.reflect(deg + 2), ref_poly([F(0)] * 2 + ref_poly(ps)[::-1]))


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, st.one_of(rationals, st.integers(-6, 6)))
def test_index_ratio_evaluation(ns, ds, x):
    den_value = ref_poly_at(ds, F(x))
    assume(Poly(ds) != Poly([0]))
    ratio = IndexRatio(Poly(ns), Poly(ds))
    if den_value == 0:
        with pytest.raises(ZeroDivisionError):
            ratio(x)
    else:
        assert ratio(x) == ref_poly_at(ns, F(x)) / den_value


def ref_products(ratio, count, offset):
    """The Fraction loop IndexRatio.products replaced: v_0 = 1 and
    v_{n+1} = v_n * ratio(offset + n), a pole raising DiagSingular(n)."""
    vals = [F(1)]
    for n in range(count - 1):
        try:
            r = ratio(offset + n)
        except ZeroDivisionError:
            raise DiagSingular(n, f"the ratio has a pole at {offset + n}") from None
        vals.append(vals[-1] * r)
    return vals


@st.composite
def product_cases(draw):
    """(num, den, offset): polynomials with roots at offset + k for small
    integers k as well as anywhere, so that zeros, poles and 0/0 fall on
    the evaluated indices; the numerator may be the zero polynomial."""
    offset = F(draw(st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6))))
    near = st.integers(-2, 8).map(lambda k: offset + k)

    def factored():
        cs = [draw(st.sampled_from([F(1), F(-2), F(3, 5)]))]
        for root in draw(st.lists(st.one_of(near, rationals), max_size=3)):
            cs = ref_poly_mul(cs, [-root, F(1)])
        return cs

    num = draw(st.sampled_from(["zero", "factored", "coeffs"]))
    ns = [F(0)] if num == "zero" else factored() if num == "factored" else draw(coeff_lists)
    ds = factored() if draw(st.booleans()) else draw(coeff_lists)
    assume(Poly(ds) != Poly([0]))
    return ns, ds, offset


@settings(max_examples=200, deadline=None)
@given(product_cases(), st.integers(0, 10))
@example(([F(-3), F(1)], [F(1)], F(0)), 8)  # a zero ratio at n = 3
@example(([F(1)], [F(-7, 2), F(1)], F(1, 2)), 8)  # a pole at 7/2, index 3
@example(([F(-5, 2), F(1)], [F(-5, 2), F(1)], F(1, 2)), 8)  # 0/0 at 5/2, index 2
def test_products_against_the_fraction_loop(case, count):
    ns, ds, offset = case
    ratio = IndexRatio(Poly(ns), Poly(ds))
    try:
        expected = ref_products(lambda x: ref_poly_at(ns, x) / ref_poly_at(ds, x), count, offset)
    except DiagSingular as exc:
        with pytest.raises(DiagSingular) as got:
            ratio.products(count, offset)
        assert got.value.index == exc.index and str(got.value) == str(exc)
    else:
        got = ratio.products(count, offset)
        assert type(got) is tuple and all(type(v) is F for v in got)
        assert list(got) == expected


# ---- boundary helpers: storage to storage ---------------------------------------------


recurrences = st.builds(
    lambda a, b: Recurrence(tuple(a), tuple(b)),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=8, max_size=8),
    st.lists(st.fractions(min_value=1, max_value=4, max_denominator=7), min_size=7, max_size=7),
)


@settings(max_examples=30, deadline=None)
@given(recurrences)
def test_family_operator_columns_and_moments(rec):
    fam = polys_from_recurrence(rec, 6)
    gop = fam.gop(6)
    rows = [[fam.polys[n].coeffs[m] if m < len(fam.polys[n].coeffs) else F(0) for n in range(7)] for m in range(7)]
    assert gop.equals(OpMatrix(rows, 6, 0, 6)) and gop.cols == OpMatrix(rows, 6, 0, 6).cols
    for n in range(7):
        assert gop.column_poly(n) == fam.polys[n] == Poly(gop.column(n))
    p = Poly([F(1, 3), 0, F(-2, 5), F(7, 2)])
    expected = Poly([0])
    for j, c in enumerate(p.coeffs):
        expected = expected + Poly([c]) * Poly(gop.column(j))
    assert_canonical(gop.apply_poly(p), expected.coeffs)
    mgf = moments_from_recurrence(rec, 10).moment_gf
    assert_canonical(mgf, TruncSeries(list(mgf.coeffs)).coeffs)
    f0 = mgf.borel()
    mus = [f0.coeffs[k] * math.factorial(k) for k in range(11)]
    for i in range(3):
        h = fam.polys[i] * fam.polys[i + 1]
        assert inner_product(fam.polys[i], fam.polys[i + 1], f0) == sum(c * mus[k] for k, c in enumerate(h.coeffs))


@settings(max_examples=40, deadline=None)
@given(coeff_lists)
def test_apply_series_matches_the_fraction_sum(xs):
    # bar() of the inverse of a degree-lowering operator acts on series
    series_op = OpMatrix.series_of_d(TruncSeries([1, F(1, 2), F(-1, 3)] + [0] * 6), 8).inverse().bar()
    s = TruncSeries(xs)
    order = min(8, s.order)
    expected = [F(0)] * (order + 1)
    for a in range(order + 1):
        for b in range(a, order + 1):
            expected[b] += series_op.entry(b, a) * xs[a]
    assert_canonical(series_op.apply_series(s), expected)
