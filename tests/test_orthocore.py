import random
from fractions import Fraction as F

import pytest

from umbral.errors import ClosedFormRequired, DegenerateB, NodeAtZeroOfP, OrderExhausted, SingularParams
from umbral.families import JacobiParams, ShefferParams, jacobi_closed_form, ultraspherical_closed_form
from umbral.indexfn import IndexRatio, Poly, affine
from umbral.orthocore import (
    ClosedFormRecurrence,
    assoc_one_identity_check,
    Recurrence,
    assoc_mgf_from_tails,
    assoc_one_from_moment_operator,
    assoc_recurrence,
    cd_kernel_identity_check,
    cf_tails,
    christoffel_darboux,
    determinant_identity_check,
    dual_recurrence,
    dual_series_checks,
    fn_family,
    gram_matrix,
    inner_product,
    moments_from_recurrence,
    numerator_functional_check,
    polys_from_recurrence,
    recurrence_from_moments,
    tail_from_moment_gf,
    tail_from_partial_fractions,
)
from umbral.series import TruncSeries, exp_series


def catalan(n):
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c


def chebyshev_rec(depth):
    return Recurrence([0] * (depth + 1), [F(1, n) for n in range(1, depth + 1)])


def hermite_rec(depth):
    return Recurrence([0] * (depth + 1), [1] * depth)


def random_recurrence(rng, depth):
    def frac(nonzero=False):
        while True:
            v = F(rng.randint(-7, 7), rng.randint(1, 7))
            if v != 0 or not nonzero:
                return v

    return Recurrence(
        [frac() for _ in range(depth + 1)],
        [frac(nonzero=True) for _ in range(depth)],
    )


# ---- polynomials -----------------------------------------------------------


def test_chebyshev_type_polynomials():
    fam = polys_from_recurrence(chebyshev_rec(6), 6)
    assert fam.polys[2].coeffs == (-1, 0, 1)          # x^2 - 1
    assert fam.polys[3].coeffs == (0, -2, 0, 1)       # x^3 - 2x


def test_hermite_polynomials():
    fam = polys_from_recurrence(hermite_rec(6), 6)
    assert fam.polys[2].coeffs == (-1, 0, 1)
    assert fam.polys[3].coeffs == (0, -3, 0, 1)       # x^3 - 3x


def test_determinant_identity():
    rng = random.Random(3)
    rec = random_recurrence(rng, 8)
    fam = polys_from_recurrence(rec, 8)
    assert determinant_identity_check(fam, 6, "determinant").passed


# ---- moments ---------------------------------------------------------------


def test_catalan_moments():
    ms = moments_from_recurrence(chebyshev_rec(8), 8)
    cats = catalan(4)
    for k in range(4):
        assert ms.moment_gf.coeffs[2 * k] == cats[k]
        assert ms.moment_gf.coeffs[2 * k + 1] == 0


def test_gaussian_moments():
    ms = moments_from_recurrence(hermite_rec(8), 8)
    expected = TruncSeries.from_polynomial([0, 0, F(1, 2)], 8).exp()
    assert ms.f0 == expected
    assert ms.moments[4] == 3


def test_degenerate_b_is_point_mass():
    rec = Recurrence([F(2, 3)] * 7, [0] * 6)
    ms = moments_from_recurrence(rec, 6)
    assert ms.f0 == exp_series(F(2, 3), 6)


@pytest.mark.parametrize("a, b, order", [([1], [1, 0], 4), ([1, 2], [1, 3, 0], 6)])
def test_a_zero_b_past_the_depth_does_not_end_the_fraction(a, b, order):
    # depths 0 and 1 reach orders 1 and 3; the zero b lies past what they read
    with pytest.raises(OrderExhausted):
        moments_from_recurrence(Recurrence(a, b), order)


def test_recurrence_from_catalan_gf():
    gf = TruncSeries.from_function(lambda i: catalan(6)[i // 2] if i % 2 == 0 else 0, 12)
    rec = recurrence_from_moments(gf)
    assert all(v == 0 for v in rec.a[:5])
    assert rec.b[:5] == tuple(F(1, n) for n in range(1, 6))


def test_rank_one_hankel_degenerates():
    gf = TruncSeries.from_function(lambda i: 1, 8)
    with pytest.raises(DegenerateB) as err:
        recurrence_from_moments(gf)
    assert err.value.depth == 1


def test_half_exponential_moments():
    # f0 = (e^x + 1)/2, the s = 2 instance of the deformed-Legendre family
    # two-point measure: the fraction terminates at depth 2, so peel one level
    f0 = (exp_series(1, 10) + 1) / 2
    gf = f0.laplace()
    rec = recurrence_from_moments(gf, depth=1)
    assert rec.a[0] == F(1, 2)
    assert rec.b[0] == F(1, 4)


def test_moment_round_trip_random():
    rng = random.Random(11)
    for _ in range(10):
        rec = random_recurrence(rng, 9)
        gf = moments_from_recurrence(rec, 16).moment_gf
        back = recurrence_from_moments(gf)
        d = min(len(back.a) - 1, len(back.b), 6)
        assert back.a[: d + 1] == rec.a[: d + 1]
        assert back.b[:d] == rec.b[:d]


# ---- inner products -----------------------------------------------------------


def test_inner_product_unit():
    f0 = moments_from_recurrence(chebyshev_rec(6), 8).f0
    assert inner_product(Poly([1]), Poly([1]), f0) == 1


def test_chebyshev_norm():
    rec = chebyshev_rec(9)
    fam = polys_from_recurrence(rec, 8)
    f0 = moments_from_recurrence(rec, 16).f0
    assert inner_product(fam.polys[2], fam.polys[2], f0) == 1  # 2! * 1 * 1/2
    assert inner_product(fam.polys[1], fam.polys[2], f0) == 0


def test_gram_diagonal_random():
    rng = random.Random(5)
    rec = random_recurrence(rng, 9)
    fam = polys_from_recurrence(rec, 8)
    f0 = moments_from_recurrence(rec, 16).f0
    g = gram_matrix(fam, f0, 6)
    for i in range(7):
        for j in range(7):
            assert g[i][j] == (fam.norms[i] if i == j else 0)


# ---- dual series family ----------------------------------------------------------


def test_fn_family_hermite():
    rec = hermite_rec(10)
    fam = polys_from_recurrence(rec, 10)
    f0 = moments_from_recurrence(rec, 16).f0
    fns = fn_family(fam, f0, 6)
    assert all(c.passed for c in dual_series_checks(fam, f0, fns))
    assert fns[0] == f0
    # f_1 = d/dy e^(y^2/2) = y e^(y^2/2)
    assert fns[1] == (f0 * TruncSeries.x(f0.order)).truncate(15)


def test_fn_leading_coefficients_random():
    rng = random.Random(7)
    rec = random_recurrence(rng, 9)
    fam = polys_from_recurrence(rec, 8)
    f0 = moments_from_recurrence(rec, 16).f0
    fns = fn_family(fam, f0, 6)
    assert all(c.passed for c in dual_series_checks(fam, f0, fns))
    for n, fn in enumerate(fns):
        assert fn.coeffs[n] == 1


# ---- Christoffel-Darboux ------------------------------------------------------------


def test_cd_kernel_chebyshev_small():
    fam = polys_from_recurrence(chebyshev_rec(6), 6)
    assert cd_kernel_identity_check(fam, 1, "kernel").passed


def test_cd_kernel_random():
    rng = random.Random(13)
    rec = random_recurrence(rng, 8)
    fam = polys_from_recurrence(rec, 8)
    assert cd_kernel_identity_check(fam, 4, "kernel").passed


def test_cd_deformation_matches_display():
    rec = hermite_rec(16)
    fam = polys_from_recurrence(rec, 16)
    kd = christoffel_darboux(fam, rec, F(1, 3), 8)
    assert kd.a == kd.expected_a
    assert kd.b == kd.expected_b
    # theta = 0 diagonal entry: a_1 - p_1(y0) + p_2(y0)/p_1(y0)
    y0 = F(1, 3)
    assert kd.a[0] == rec.a_at(1) - y0 + (y0 * y0 - 1) / y0


def test_cd_deformation_rejects_zero_node():
    rec = hermite_rec(16)
    fam = polys_from_recurrence(rec, 16)
    with pytest.raises(NodeAtZeroOfP):
        christoffel_darboux(fam, rec, 1, 8)  # p_2(1) = 0


# ---- numerator functional ------------------------------------------------------------


def test_numerator_functional():
    rec = hermite_rec(9)
    fam = polys_from_recurrence(rec, 8)
    f0 = moments_from_recurrence(rec, 16).f0
    assert numerator_functional_check(fam, f0, 6, "numerator functional").passed


def test_orthocore_checks_name_the_failing_n():
    rec = hermite_rec(9)
    fam = polys_from_recurrence(rec, 8)
    f0 = moments_from_recurrence(rec, 16).f0
    fam.polys[3] = fam.polys[3] + 1  # p_3 - p_3(y) divided by x - y does not see it
    fam.numerators[4] = fam.numerators[4] + Poly([0, 1])
    kernel = cd_kernel_identity_check(fam, 6, "kernel")
    assert (kernel.passed, kernel.name, kernel.witness) == (False, "kernel", "n=2")
    numerator = numerator_functional_check(fam, f0, 6, "numerator functional")
    assert (numerator.passed, numerator.witness) == (False, "n=4")
    determinant = determinant_identity_check(fam, 6, "determinant")
    assert (determinant.passed, determinant.witness) == (False, "n=3")


# ---- tails and association ---------------------------------------------------------------


def test_tails_level_zero_is_moment_gf():
    rec = chebyshev_rec(12)
    tails = cf_tails(rec, 0, 10)
    assert tails[0] == moments_from_recurrence(rec, 10).moment_gf
    assert assoc_mgf_from_tails(rec, 0, 10) == moments_from_recurrence(rec, 10).f0


def test_chebyshev_self_similarity():
    rec = chebyshev_rec(14)
    assert assoc_mgf_from_tails(rec, 1, 10) == assoc_mgf_from_tails(rec, 0, 10)


def test_tails_have_correct_valuation():
    rng = random.Random(17)
    rec = random_recurrence(rng, 14)
    tails = cf_tails(rec, 3, 10)
    for k, t in enumerate(tails):
        assert t.valuation() == k
        assert t.coeffs[k] == 1


def test_assoc_recurrence_integer():
    rec = chebyshev_rec(10)
    shifted = assoc_recurrence(rec, 2)
    assert shifted.a == rec.a[2:]
    assert shifted.b[:4] == tuple((2 + n) * rec.b[1 + n] / n for n in range(1, 5))


def test_assoc_recurrence_closed_form():
    cf = ClosedFormRecurrence(IndexRatio.const(0), affine(0, 1).reciprocal())  # b_n = 1/n
    for c in (F(1, 2), F(2), F(-1, 3)):
        out = cf.assoc(c)
        for n in range(1, 6):
            assert out.b_fn(n) == F(1, n)  # self-similar family


def test_assoc_additivity_closed_form():
    a_fn = IndexRatio(Poly([1, 2]))            # a_n = 1 + 2n
    b_fn = IndexRatio(Poly([3, 1]), Poly([1, 1]))  # b_n = (3+n)/(1+n)
    cf = ClosedFormRecurrence(a_fn, b_fn)
    one = cf.assoc(F(1, 2)).assoc(F(1, 3))
    two = cf.assoc(F(5, 6))
    assert one.equals(two)


def test_index_poly_is_exact():
    p = Poly([1, 2]) * Poly([F(1, 2), 1]) + 3
    assert p.coeffs == (F(7, 2), 2, 2)
    assert p(F(1, 2)) == F(5)
    with pytest.raises(TypeError):
        Poly([0.1])
    with pytest.raises(TypeError):
        p(0.5)
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    # trailing zeros are trimmed, down to the zero polynomial (0,)
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([1, 2]) + Poly([0, -2]) == Poly([1])
    assert Poly([]).coeffs == Poly([0, 0]).coeffs == (0,)
    zero = p - p
    assert zero.is_zero() and zero == Poly.const(0) and zero(7) == 0
    assert (p * zero).is_zero() and (p * 0).is_zero()
    # products, substitution and reflection
    assert Poly([1, 1]) * Poly([-1, 1]) == Poly([-1, 0, 1])
    assert Poly([0, 0, 1]).substitute(Poly([1, 2])) == Poly([1, 4, 4])
    assert p.substitute(Poly([1, 1])) == p.shift(1)
    assert p.shift(F(-1, 2))(F(1, 2)) == p(0)
    assert Poly([1, 2]).reflect(3) == Poly([0, 0, 2, 1])
    with pytest.raises(ValueError):
        p.reflect(1)
    # at a series the value is the composition
    y = TruncSeries.x(4)
    assert Poly([1, 0, 1])(y + 1) == TruncSeries.from_polynomial([2, 2, 1], 4)


def test_assoc_requires_closed_form_for_rational_c():
    with pytest.raises(ClosedFormRequired):
        assoc_recurrence(chebyshev_rec(6), F(1, 2))


def test_assoc_first_shift_display():
    rng = random.Random(23)
    rec = random_recurrence(rng, 10)
    shifted = assoc_recurrence(rec, 1)
    for n in range(1, 6):
        assert shifted.a[n] == rec.a[n + 1]
        assert shifted.b[n - 1] == (1 + n) * rec.b_at(1 + n) / n


# ---- the moment-operator route to the first associated family -----------------------------


def test_assoc_one_operator_hermite():
    rec = hermite_rec(20)
    fam = polys_from_recurrence(rec, 20)
    gf = moments_from_recurrence(rec, 12).moment_gf
    op = assoc_one_from_moment_operator(fam, gf, 12)
    assoc_fam = polys_from_recurrence(assoc_recurrence(rec, 1), 12)
    # hand-checked values
    assert op.apply_poly(Poly([1])) == Poly([1])
    assert op.apply_poly(Poly([0, 0, 1])) == Poly([-2, 0, 1])
    for n in range(10):
        assert op.apply_poly(Poly([0] * n + [1])) == assoc_fam.polys[n]


def test_assoc_one_operator_random():
    rng = random.Random(29)
    rec = random_recurrence(rng, 20)
    fam = polys_from_recurrence(rec, 20)
    gf = moments_from_recurrence(rec, 12).moment_gf
    op = assoc_one_from_moment_operator(fam, gf, 12)
    assoc_fam = polys_from_recurrence(assoc_recurrence(rec, 1), 12)
    for n in range(9):
        assert op.apply_poly(Poly([0] * n + [1])) == assoc_fam.polys[n]


# ---- duality -------------------------------------------------------------------------------


def test_duality_involution_polynomial():
    cf = ClosedFormRecurrence(IndexRatio(Poly([0, 1])), IndexRatio(Poly([1, 1])))
    dd = dual_recurrence(dual_recurrence(cf))
    assert dd.equals(cf)


def test_duality_hermite_sign_flip():
    b = F(5, 3)
    cf = ClosedFormRecurrence(IndexRatio.const(0), IndexRatio.const(b))
    dual = dual_recurrence(cf)
    assert dual.a_fn(4) == 0
    assert dual.b_fn(4) == -b


def test_chebyshev_type_is_self_dual():
    cf = ClosedFormRecurrence(IndexRatio.const(0), affine(0, 1).reciprocal())
    dual = dual_recurrence(cf)
    assert dual.equals(cf)


def test_negative_index_tail_identity_chebyshev():
    # self-dual family: tail of the moment gf == partial-fraction expansion
    rec = chebyshev_rec(16)
    fam = polys_from_recurrence(rec, 8)
    gf = moments_from_recurrence(rec, 12).moment_gf
    lhs = tail_from_moment_gf(gf, 8)
    rhs = tail_from_partial_fractions(fam, 8)
    assert lhs.coeffs == rhs.coeffs


def test_negative_index_tail_identity_hermite_dual():
    # dual of the constant-b family flips the sign of b
    depth = 16
    dual_rec = Recurrence([0] * (depth + 1), [-1] * depth)
    fam = polys_from_recurrence(dual_rec, 8)
    gf = moments_from_recurrence(dual_rec, 12).moment_gf
    lhs = tail_from_moment_gf(gf, 8)
    rhs = tail_from_partial_fractions(fam, 8)
    assert lhs.coeffs == rhs.coeffs


def test_assoc_one_identity_wrapper():
    rng = random.Random(31)
    assert assoc_one_identity_check(random_recurrence(rng, 22), 10, "first associated family").passed


def test_cd_zero_node_guard_at_origin():
    rec = hermite_rec(16)
    fam = polys_from_recurrence(rec, 16)
    with pytest.raises(NodeAtZeroOfP):
        christoffel_darboux(fam, rec, 0, 8)  # p_1(0) = 0


from hypothesis import example, given, settings
from hypothesis import strategies as st

rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero_rational = rational.filter(lambda v: v != 0)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(rational, min_size=8, max_size=8),
    st.lists(nonzero_rational, min_size=7, max_size=7),
)
def test_moment_round_trip_property(a, b):
    rec = Recurrence(a, b)
    gf = moments_from_recurrence(rec, 12).moment_gf
    back = recurrence_from_moments(gf)
    d = min(len(back.a) - 1, len(back.b), 4)
    assert back.a[: d + 1] == rec.a[: d + 1]
    assert back.b[:d] == rec.b[:d]


@settings(max_examples=20, deadline=None)
@given(
    st.lists(rational, min_size=7, max_size=7),
    st.lists(nonzero_rational, min_size=6, max_size=6),
)
def test_gram_diagonality_property(a, b):
    rec = Recurrence(a, b)
    fam = polys_from_recurrence(rec, 6)
    f0 = moments_from_recurrence(rec, 10).f0
    for i in range(5):
        for j in range(5):
            expected = fam.norms[i] if i == j else 0
            assert inner_product(fam.polys[i], fam.polys[j], f0) == expected


def test_dual_identity_check_wrapper():
    from umbral.indexfn import IndexRatio, affine
    from umbral.orthocore import dual_identity_check

    cheb = ClosedFormRecurrence(IndexRatio.const(0), affine(0, 1).reciprocal())
    assert dual_identity_check(cheb, "1/theta family", terms=8).passed
    hermite = ClosedFormRecurrence(IndexRatio.const(0), IndexRatio.const(1))
    assert dual_identity_check(hermite, "constant-b family", terms=8).passed


@pytest.mark.parametrize(
    "closed_form, pole",
    [
        pytest.param(lambda: ultraspherical_closed_form(ShefferParams(F(1, 2), F(1, 3), F(2, 5))), 1, id="ultraspherical"),
        pytest.param(lambda: jacobi_closed_form(JacobiParams(F(1, 3), F(2, 5), F(3, 7))), 2, id="jacobi"),
    ],
)
def test_dual_pole_is_a_named_error(closed_form, pole):
    """A dual whose b has a pole inside the truncation raises SingularParams,
    an EngineError that names the index, not a bare ZeroDivisionError."""
    from umbral.orthocore import dual_identity_check

    dual = dual_recurrence(closed_form())
    with pytest.raises(SingularParams, match=f"b_n invalid: index ratio pole at {pole}$"):
        dual_identity_check(closed_form(), "dual")
    with pytest.raises(SingularParams):
        dual.truncate(pole)
    assert dual.truncate(pole - 1).depth == pole - 1


def test_truncate_names_a_pole_in_a_and_ignores_b_at_zero():
    # a_n = 1/(n - 3) has a pole at 3; b_n = 1/n has one at 0, never evaluated
    cf = ClosedFormRecurrence(IndexRatio(1, Poly([-3, 1])), affine(0, 1).reciprocal())
    assert cf.truncate(2).b == (1, F(1, 2))
    with pytest.raises(SingularParams, match="a_n invalid: index ratio pole at 3$"):
        cf.truncate(3)


def test_assoc_zero_is_identity_on_closed_forms():
    cf = ClosedFormRecurrence(IndexRatio(Poly([1, 2])), IndexRatio(Poly([3, 1])))
    assert assoc_recurrence(cf, 0) is cf
    rec = chebyshev_rec(6)
    assert assoc_recurrence(rec, 0) is rec


# ---- moments <-> recurrence against weighted Motzkin paths -----------------------


def motzkin_moments(a, b, order):
    """mu_0..mu_order of the J-fraction 1/(1 - a_0 x - 1 b_1 x^2/(1 - a_1 x - 2 b_2 x^2/...)).

    Sums weighted Motzkin paths height by height: an up step weighs 1, a
    level step at height j weighs a_j and a down step from height j weighs
    j b_j.  No continued fraction or series division is involved.
    """
    heights = {0: F(1)}
    out = [F(1)]
    for step in range(1, order + 1):
        nxt = {}
        for j, w in heights.items():
            # a path must still be able to come back to height 0
            if j + 1 <= order - step:
                nxt[j + 1] = nxt.get(j + 1, 0) + w
            if j <= order - step:
                nxt[j] = nxt.get(j, 0) + w * a[j]
            if j >= 1:
                nxt[j - 1] = nxt.get(j - 1, 0) + w * j * b[j - 1]
        heights = nxt
        out.append(F(heights.get(0, 0)))
    return out


positive_rational = st.builds(F, st.integers(1, 9), st.integers(1, 9))


@st.composite
def positive_recurrences(draw):
    depth = draw(st.integers(2, 12))
    a = draw(st.lists(positive_rational, min_size=depth + 1, max_size=depth + 1))
    b = draw(st.lists(positive_rational, min_size=depth, max_size=depth))
    return a, b


@settings(max_examples=40, deadline=None)
@given(positive_recurrences())
def test_moments_recurrence_round_trip_against_motzkin_paths(ab):
    a, b = ab
    depth = len(b)
    order = 2 * depth - 1
    rec = Recurrence(a, b)
    ms = moments_from_recurrence(rec, order)
    expected = motzkin_moments(a, b, order)
    assert list(ms.moment_gf.coeffs) == expected
    assert ms.f0 == ms.moment_gf.borel()
    back = recurrence_from_moments(TruncSeries(expected))
    # 2 depth - 1 moments fix a_0..a_{depth-1} and b_1..b_{depth-1}
    assert back.a == tuple(a[:depth])
    assert back.b == tuple(b[: depth - 1])


@settings(max_examples=30, deadline=None)
@given(positive_recurrences(), st.data())
def test_zero_b_raises_degenerate_at_its_depth(ab, data):
    a, b = ab
    depth = len(b)
    k = data.draw(st.integers(1, depth - 1))
    b = b[: k - 1] + [F(0)] + b[k:]
    order = 2 * depth - 1
    expected = motzkin_moments(a, b, order)
    assert list(moments_from_recurrence(Recurrence(a, b), order).moment_gf.coeffs) == expected
    with pytest.raises(DegenerateB) as err:
        recurrence_from_moments(TruncSeries(expected))
    assert err.value.depth == k


# ---- Poly against the coefficient-list helpers it replaced -------------------------------
# The list helpers and the list-based convergent loop, kept as independent
# references for the Poly arithmetic and for polys_from_recurrence.


def ref_poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return out


def ref_poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else F(0)) + (q[i] if i < len(q) else F(0)) for i in range(n)]


def ref_poly_eval(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_poly_scale(p, c):
    return [c * v for v in p]


def ref_poly_trim(p):
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def ref_convergents(rec, upto):
    """(p_n, R_n, Q_n) for n <= upto as trimmed coefficient lists, the p_n
    padded to degree n."""
    r = [[F(0)], [F(0), F(1)]]
    q = [[F(1)], [F(1), -rec.a_at(0)]]
    for n in range(1, upto):
        lin = [F(1), -rec.a_at(n)]
        quad = [F(0), F(0), -F(n) * rec.b_at(n)]
        r.append(ref_poly_add(ref_poly_mul(r[n], lin), ref_poly_mul(quad, r[n - 1])))
        q.append(ref_poly_add(ref_poly_mul(q[n], lin), ref_poly_mul(quad, q[n - 1])))
    r = [ref_poly_trim(v) for v in r[: upto + 1]]
    q = [ref_poly_trim(v) for v in q[: upto + 1]]
    polys = []
    for n in range(upto + 1):
        rev = [F(0)] * (n + 1)
        for i, c in enumerate(q[n]):
            rev[n - i] = c
        polys.append(rev)
    return polys, r, q


coefficient_lists = st.lists(rational, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(coefficient_lists, coefficient_lists, rational)
def test_poly_arithmetic_matches_list_reference(p, q, x):
    def same(poly, ref):
        assert poly.coeffs == tuple(ref_poly_trim(ref))

    same(Poly(p), p)
    same(Poly(p) * Poly(q), ref_poly_mul(p, q))
    same(Poly(p) + Poly(q), ref_poly_add(p, q))
    same(Poly(p) - Poly(q), ref_poly_add(p, ref_poly_scale(q, -1)))
    same(Poly(p) * x, ref_poly_scale(p, x))
    assert Poly(p)(x) == ref_poly_eval(p, x)


@st.composite
def recurrences_with_zero_bs(draw):
    depth = draw(st.integers(0, 9))
    a = draw(st.lists(rational, min_size=depth + 1, max_size=depth + 1))
    b = draw(st.lists(st.one_of(st.just(F(0)), rational), min_size=depth, max_size=depth))
    return Recurrence(a, b)


@settings(max_examples=60, deadline=None)
@given(recurrences_with_zero_bs())
def test_convergents_match_list_reference(rec):
    fam = polys_from_recurrence(rec, rec.depth)  # the matrix-product cross-check runs too
    polys, r, q = ref_convergents(rec, rec.depth)
    assert [p.coeffs for p in fam.polys] == [tuple(v) for v in polys]
    assert [p.coeffs for p in fam.numerators] == [tuple(v) for v in r]
    assert [p.coeffs for p in fam.reversed_q] == [tuple(v) for v in q]


# ---- the moment maps against the routes they replaced --------------------------------
# Before the Motzkin table and the Chebyshev algorithm, rec -> moments divided
# the convergent R_m by x Q_m as series and moments -> rec peeled the continued
# fraction one series inversion per level.  Both stay here as references.


def ref_moments_by_convergent(rec, order):
    m = order // 2 + 1
    usable = min(m, rec.depth)
    if usable < m and 0 not in rec.b[:usable]:
        raise OrderExhausted(f"recurrence depth {rec.depth} cannot reach order {order}")
    fam = polys_from_recurrence(rec, usable)
    num = TruncSeries.from_polynomial(fam.numerators[usable].coeffs, order + 1).shift_down(1)
    den = TruncSeries.from_polynomial(fam.reversed_q[usable].coeffs, order)
    return (num / den).truncate(order)


def ref_recurrence_by_peeling(gf, depth=None):
    """Peel 1/t_n = 1 - a_n x - (n+1) b_{n+1} x^2 t_{n+1}."""
    if gf.coefficient(0) != 1:
        raise DegenerateB(0)
    limit = (gf.order - 1) // 2 if depth is None else depth
    a, b, t = [], [], gf
    while t.order >= 2 and len(a) < limit:
        u = 1 / t
        a.append(-u.coefficient(1))
        rem = 1 - TruncSeries.from_polynomial([0, a[-1]], u.order) - u
        coeff = rem.coefficient(2)
        if coeff == 0:
            raise DegenerateB(len(a))
        b.append(coeff / len(a))
        t = rem.shift_down(2) / coeff
    if t.order >= 1:
        a.append(-(1 / t).coefficient(1))
    return Recurrence(a, b)


def outcome(fn, *args):
    """The result, or the exception type and its depth (None if it has none)."""
    try:
        return fn(*args)
    except (DegenerateB, OrderExhausted) as exc:
        return type(exc), getattr(exc, "depth", None)


signed_or_zero = st.one_of(st.just(F(0)), rational)


@st.composite
def signed_recurrences(draw):
    """Entries of either sign with zero a's and zero b's; the b list may run
    one past the a's or stop one short, so depth and degeneracy both vary."""
    depth = draw(st.integers(0, 7))
    a = draw(st.lists(signed_or_zero, min_size=depth + 1, max_size=depth + 1))
    b = draw(st.lists(signed_or_zero, min_size=max(depth - 1, 0), max_size=depth + 1))
    return Recurrence(a, b)


@settings(max_examples=150, deadline=None)
@given(signed_recurrences(), st.integers(0, 15))
@example(Recurrence([F(1)], [F(0)]), 3)  # depth 0; its zero b_1 lies past it: OrderExhausted
@example(Recurrence([F(-1), F(0), F(2)], [F(1, 2), F(0)]), 9)
@example(Recurrence([F(1)], []), 0)
def test_motzkin_table_equals_the_convergent_route(rec, order):
    got = outcome(moments_from_recurrence, rec, order)
    want = outcome(ref_moments_by_convergent, rec, order)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.moment_gf == want
        assert got.f0 == want.borel()


@st.composite
def moment_series(draw):
    """Moments of a signed recurrence (zero b's included), or an arbitrary
    list that may leave some Hankel determinant zero or mu_0 != 1."""
    order = draw(st.integers(0, 13))
    if draw(st.booleans()):
        rec = draw(signed_recurrences())
        gf = outcome(ref_moments_by_convergent, rec, order)
        if not isinstance(gf, tuple):
            return gf
    small = st.sampled_from([F(-1), F(0), F(1), F(2), F(1, 2)])
    head = draw(st.sampled_from([F(1), F(1), F(1), F(0), F(2)]))
    return TruncSeries([head] + draw(st.lists(small, min_size=order, max_size=order)))


@settings(max_examples=200, deadline=None)
@given(moment_series(), st.one_of(st.none(), st.integers(-1, 8)))
@example(TruncSeries([F(0), F(1), F(1)]), None)
@example(TruncSeries([F(1), F(1), F(1), F(1)]), 0)
@example(TruncSeries([F(1)]), None)  # moment orders 0..3: at most one level
@example(TruncSeries([F(1), F(-1, 2)]), 0)
@example(TruncSeries([F(1), F(-1, 2), F(3, 4)]), None)
@example(TruncSeries([F(1), F(-1, 2), F(3, 4)]), 1)
@example(TruncSeries([F(1), F(-1, 2), F(3, 4), F(-1, 8)]), 2)
def test_chebyshev_algorithm_equals_the_series_peeling(gf, depth):
    assert outcome(recurrence_from_moments, gf, depth) == outcome(ref_recurrence_by_peeling, gf, depth)


# ---- Hankel determinants: an oracle with neither paths nor sigma rows ------------------


def hankel_dets(mus, n, shifted=False):
    """det(mu_{i+j})_{i,j<n}; shifted, the last column is mu_{i+n} instead."""
    sympy = pytest.importorskip("sympy")
    if n == 0:
        return F(0) if shifted else F(1)
    cols = list(range(n - 1)) + [n if shifted else n - 1]
    m = sympy.Matrix(n, n, lambda i, j: sympy.Rational(mus[i + cols[j]].numerator, mus[i + cols[j]].denominator))
    det = m.det(method="bareiss")
    return F(int(det.p), int(det.q))


def hankel_recurrence(mus):
    """The a_n (2n + 1 <= N) and b_n (2n <= N) of mu_0..mu_N, from
    n b_n = H_{n+1} H_{n-1} / H_n^2 and a_n = K_{n+1}/H_{n+1} - K_n/H_n with K
    the shifted determinants, up to the first zero H_{n+1}.  Returns (a, b,
    that n or None)."""
    top = len(mus) - 1
    h = [hankel_dets(mus, n) for n in range(top // 2 + 2)]
    k = [hankel_dets(mus, n, shifted=True) for n in range((top + 1) // 2 + 1)]
    a, b = [], []
    for n in range(top // 2 + 1):
        if n >= 1:
            b.append(h[n + 1] * h[n - 1] / h[n] ** 2 / n)
        if h[n + 1] == 0:
            return a, b, n
        if 2 * n + 1 <= top:
            a.append(k[n + 1] / h[n + 1] - k[n] / h[n])
    return a, b, None


@st.composite
def hankel_cases(draw):
    depth = draw(st.integers(1, 5))
    a = draw(st.lists(signed_or_zero, min_size=depth + 1, max_size=depth + 1))
    b = draw(st.lists(st.one_of(nonzero_rational, st.just(F(0))), min_size=depth, max_size=depth))
    return Recurrence(a, b)


@settings(max_examples=30, deadline=None)
@given(hankel_cases())
def test_hankel_determinants_against_both_directions(rec):
    depth = rec.depth
    gf = moments_from_recurrence(rec, 2 * depth - 1).moment_gf
    a, b, stop = hankel_recurrence(gf.coeffs)
    # 2 depth - 1 moments reach a_0..a_{depth-1} and b_1..b_{depth-1}; since
    # H_{n+1} = n! b_1 ... b_n H_n, the first zero b_n is the first zero H_{n+1}
    zero_b = next((n for n, v in enumerate(rec.b[: depth - 1], start=1) if v == 0), None)
    assert stop == zero_b
    assert a == list(rec.a[: len(a)]) and b == list(rec.b[: len(b)])
    if stop is None:
        assert len(a) == depth and len(b) == depth - 1
        assert recurrence_from_moments(gf) == Recurrence(a, b)
    else:
        with pytest.raises(DegenerateB) as err:
            recurrence_from_moments(gf)
        assert err.value.depth == stop
