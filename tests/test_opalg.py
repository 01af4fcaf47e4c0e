import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbral.errors import (
    DiagSingular,
    EngineError,
    NotInvertible,
    OrderExhausted,
    ReliabilityExhausted,
)
from umbral.families import (
    JacobiParams,
    ShefferParams,
    closed_form_raising,
    coeff_then_d,
    jacobi_closed_form,
    sheffer_closed_form,
    x_times,
)
from umbral.indexfn import IndexRatio, Poly, affine
from umbral.checks import op_check
from umbral.opalg import OpMatrix, mgf_from_gop
from umbral.series import TruncSeries, exp_series, riccati_series

from test_series import reference_mul, reference_reverse

NW = 10


# ---- oracles ---------------------------------------------------------------

def falling_factorial_poly(n):
    """Coefficients of x(x-1)...(x-n+1) by direct product."""
    poly = [F(1)]
    for k in range(n):
        nxt = [F(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] += c
            nxt[i] -= k * c
        poly = nxt
    return poly


def stirling_first_signed(n, k):
    return falling_factorial_poly(n)[k] if k <= n else F(0)


# ---- basic builders ---------------------------------------------------------

def test_commutator_d_x_is_identity():
    d, x = OpMatrix.d_op(NW), OpMatrix.x_op(NW)
    comm = d @ x - x @ d
    assert comm.equals(OpMatrix.identity(NW))
    assert comm.reliable == NW - 1


def test_l_shifts_down_and_factorial_conjugation():
    l = OpMatrix.l_op(NW)
    assert l.apply_poly(Poly([0, 0, 0, 0, 0, 1])) == Poly([0, 0, 0, 0, 1])  # x^5 -> x^4
    fact = OpMatrix.diag_op(affine(1, 1).products(NW + 1), NW)
    conj = fact @ OpMatrix.d_op(NW) @ fact.inverse()
    assert conj.equals(l)


def test_diag_ratio_guard():
    with pytest.raises(DiagSingular, match="pole at 3"):
        IndexRatio(1, Poly([-3, 1])).products(NW)
    # a zero ratio at n=3 gives zero values, and inverting that diagonal fails
    vals = affine(-3, 1).products(NW + 1)
    assert vals[3] != 0 and vals[4] == 0
    with pytest.raises(EngineError):
        OpMatrix.identity(NW).diag_conj(affine(-3, 1).ratios(NW))


def test_diag_rising_factorial():
    rising = IndexRatio(Poly.theta())  # (c)_n: ratio m at offset c
    factorial = affine(1, 1)
    assert rising.products(4, F(1, 2)) == (1, F(1, 2), F(3, 4), F(15, 8))
    assert rising.products(6, 1) == factorial.products(6)
    assert rising.products(4, 0) == (1, 0, 0, 0)

# ---- umbral composition operator ---------------------------------------------

def test_umbral_identity():
    f = TruncSeries.x(NW)
    assert OpMatrix.umbral_compose(f, NW).equals(OpMatrix.identity(NW))


def test_umbral_falling_factorials():
    cf = OpMatrix.umbral_compose(exp_series(1, NW) - 1, NW)
    assert cf.column_poly(3) == Poly(falling_factorial_poly(3))
    # full Stirling triangle
    for n in range(NW + 1):
        for k in range(NW + 1):
            expected = stirling_first_signed(n, k) if k <= n else F(0)
            assert cf.mat[k][n] == expected


def test_umbral_conjugation_of_x():
    f = riccati_series(1, 1, 0, NW)  # e^y - 1
    cf = OpMatrix.umbral_compose(f, NW)
    lhs = cf @ OpMatrix.x_op(NW) @ cf.inverse()
    fprime = TruncSeries.one(NW) + f  # f' = 1 + f
    rhs = OpMatrix.x_op(NW) @ OpMatrix.series_of_d(1 / fprime, NW)
    assert lhs.equals(rhs)


def test_umbral_inverse_is_reverse():
    f = TruncSeries.from_polynomial([0, 1, -1], NW)
    cf = OpMatrix.umbral_compose(f, NW)
    cr = OpMatrix.umbral_compose(f.reverse(), NW)
    assert cf.inverse().equals(cr)


def test_umbral_composition_law():
    # C_f C_g = C of the composite map (checked as matrices)
    f = TruncSeries.from_polynomial([0, 1, F(1, 2)], NW)
    g = TruncSeries.from_polynomial([0, 1, -1, F(1, 3)], NW)
    cf = OpMatrix.umbral_compose(f, NW)
    cg = OpMatrix.umbral_compose(g, NW)
    prod = cf @ cg
    comp = OpMatrix.umbral_compose(g.compose(f), NW)
    assert prod.equals(comp)


# ---- shifted factorial operator ----------------------------------------------

def test_shifted_product_trivial():
    assert OpMatrix.shifted_product([0] * NW, NW).equals(OpMatrix.identity(NW))


def test_shifted_product_rising():
    op = OpMatrix.shifted_product(list(range(NW)), NW)
    assert op.column_poly(2) == Poly([0, 1, 1])  # x(x+1)


def test_shifted_product_conjugation():
    ells = [F(k * k, 3) + 1 for k in range(NW)]
    c = OpMatrix.shifted_product(ells, NW)
    lhs = c.inverse() @ OpMatrix.x_op(NW) @ c
    rhs = OpMatrix.x_op(NW) - OpMatrix.diag_op(ells + [F(0)], NW)
    assert lhs.equals(rhs)


# ---- inverse guards ------------------------------------------------------------

def test_inverse_identity():
    assert OpMatrix.identity(NW).inverse().equals(OpMatrix.identity(NW))


def test_inverse_rejects_raising():
    with pytest.raises(NotInvertible):
        OpMatrix.x_op(NW).inverse()


def test_inverse_rejects_zero_diagonal():
    with pytest.raises(NotInvertible):
        OpMatrix.diag_op(range(NW + 1), NW).inverse()


def test_exp_type_conjugation_of_x():
    # ell(D) x ell(D)^(-1) = x + (ell'/ell)(D)
    ell = TruncSeries.from_polynomial([1, 2, F(1, 3), -1], NW + 1)
    lhs = OpMatrix.series_of_d(ell.truncate(NW), NW) @ OpMatrix.x_op(NW) @ OpMatrix.series_of_d(ell.truncate(NW), NW).inverse()
    rhs = OpMatrix.x_op(NW) + OpMatrix.series_of_d(ell.derivative() / ell.truncate(NW), NW)
    assert lhs.equals(rhs)


# ---- bar transform ---------------------------------------------------------------

def test_bar_of_d_is_multiplication_by_y():
    bar = OpMatrix.d_op(NW).bar()
    for b in range(1, NW + 1):
        assert bar.mat[b][b - 1] == 1
    assert bar.band_profile() == (1, 0)


def test_bar_of_x_is_y_derivative():
    bar = OpMatrix.x_op(NW).bar()
    for b in range(NW):
        assert bar.mat[b][b + 1] == b + 1


def test_bar_involution():
    f = riccati_series(1, 0, 1, NW)
    op = OpMatrix.umbral_compose(f, NW)
    assert op.bar().bar().equals(op)


def test_bar_antihomomorphism():
    d, x = OpMatrix.d_op(NW), OpMatrix.x_op(NW)
    lhs = (d @ x).bar()
    rhs = x.bar() @ d.bar()
    assert lhs.equals(rhs, through=min(lhs.reliable, rhs.reliable))


def test_bar_umbral_inverse_gives_powers_of_f():
    # bar(C_f^(-1)) . y^n = f(y)^n
    f = TruncSeries.from_polynomial([0, 1, F(2, 5), F(-1, 4)], NW)
    bar = OpMatrix.umbral_compose(f, NW).inverse().bar()
    power = TruncSeries.one(NW)
    for n in range(4):
        col = [bar.mat[b][n] for b in range(NW + 1)]
        assert col == list(power.coeffs)
        power = power * f


def test_mgf_of_hermite_type():
    # exp(-D^2/2) has mgf exp(y^2/2)
    gauss = TruncSeries.from_polynomial([0, 0, F(-1, 2)], NW).exp()
    gop = OpMatrix.series_of_d(gauss, NW)
    f0 = mgf_from_gop(gop)
    expected = TruncSeries.from_polynomial([0, 0, F(1, 2)], NW).exp()
    assert f0 == expected


# ---- band profile and three-term extraction ------------------------------------

def test_three_term_extraction():
    x = OpMatrix.x_op(NW)
    a_diag = OpMatrix.diag_op(range(NW + 1), NW)
    b_vals = [2 * F(n) for n in range(NW + 1)]
    t = x + a_diag + OpMatrix.d_op(NW) @ OpMatrix.diag_op(b_vals, NW)
    a, b, fault = t.three_term()
    assert a == [F(n) for n in range(len(a))]
    assert b == [2 * F(n) for n in range(1, len(b) + 1)]
    assert fault == ""
    assert t.apply_poly(Poly([0, 1])) == Poly([2, 1, 1])  # t.x = x^2 + x + 2


def test_three_term_degenerate_x_only():
    a, b, fault = OpMatrix.x_op(NW).three_term()
    assert all(v == 0 for v in a) and all(v == 0 for v in b) and fault == ""


def test_three_term_reports_an_entry_outside_the_band():
    t = OpMatrix.x_op(NW) @ OpMatrix.x_op(NW)
    a, b, fault = t.three_term()
    assert fault == "entry outside band at (2,0)"
    assert a == [0] * NW and b == [0] * (NW - 1)  # read off the diagonals all the same


def test_three_term_reports_a_raising_entry_other_than_one():
    a, b, fault = OpMatrix.x_op(NW).scale(2).three_term()
    assert fault == "raising entry at column 0 is 2"
    assert a == [0] * NW and b == [0] * (NW - 1)


def test_three_term_reports_the_first_faulty_column():
    """A raising fault in column 2 comes before an entry outside the band in
    column 4, and neither is seen past `through`."""
    rows = [[F(0)] * (NW + 1) for _ in range(NW + 1)]
    for n in range(NW):
        rows[n + 1][n] = F(1)
    rows[3][2], rows[0][4] = F(1, 3), F(5)
    t = OpMatrix(rows, NW, 1, NW)
    assert t.three_term()[2] == "raising entry at column 2 is 1/3"
    rows[3][2] = F(1)
    assert OpMatrix(rows, NW, 1, NW).three_term()[2] == "entry outside band at (0,4)"
    assert OpMatrix(rows, NW, 1, NW).three_term(3)[2] == ""


# ---- diagonal shift rule ----------------------------------------------------------

def test_diag_commutation_with_x():
    vals = [F(3 * n + 1, 2) for n in range(NW + 2)]
    h = OpMatrix.diag_op(vals[: NW + 1], NW)
    h_shift = OpMatrix.diag_op(vals[1:], NW)
    lhs = h @ OpMatrix.x_op(NW)
    rhs = OpMatrix.x_op(NW) @ h_shift
    assert lhs.equals(rhs)


# ---- reliability bookkeeping --------------------------------------------------------

def test_reliability_shrinks_with_raising_factors():
    x = OpMatrix.x_op(NW)
    prod = x @ x @ x
    assert prod.raised == 3
    assert prod.reliable == NW - 2
    assert prod.mat[3][0] == 1


def test_expand_in_family_stirling():
    cf = OpMatrix.umbral_compose(exp_series(1, NW) - 1, NW)
    xi = OpMatrix.identity(NW).inverse() @ cf
    for n in range(NW + 1):
        col = falling_factorial_poly(n)
        for k in range(n + 1):
            assert xi.mat[k][n] == col[k]


# ---- property: bar respects products on random diagonal/triangular pairs ------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=20, deadline=None)
@given(st.lists(small, min_size=5, max_size=5))
def test_bar_round_trip_on_series_of_d(cs):
    ell = TruncSeries.from_polynomial([1] + cs, 8)
    op = OpMatrix.series_of_d(ell, 8)
    assert op.bar().bar().equals(op)


def test_unbar_inverts_bar():
    f = riccati_series(1, 1, 0, NW)
    op = OpMatrix.umbral_compose(f, NW)
    assert op.bar().bar().equals(op)


def test_reliability_exhaustion_raises():
    from umbral.errors import ReliabilityExhausted

    op = OpMatrix.x_op(4)
    with pytest.raises(ReliabilityExhausted):
        for _ in range(6):
            op = op @ OpMatrix.x_op(4)


@settings(max_examples=15, deadline=None)
@given(st.lists(small, min_size=4, max_size=4), st.lists(small, min_size=4, max_size=4))
def test_bar_reverses_products_property(cs, ds):
    nw = 6
    a = OpMatrix.series_of_d(TruncSeries.from_polynomial([1] + cs, nw), nw) @ OpMatrix.x_op(nw)
    b = OpMatrix.series_of_d(TruncSeries.from_polynomial([1] + ds, nw), nw)
    lhs = (a @ b).bar()
    rhs = b.bar() @ a.bar()
    assert lhs.equals(rhs, through=min(lhs.reliable, rhs.reliable))


def test_series_side_raising_acts_as_f_derivative():
    # bar of the raising operator C_f x C_f^(-1) must act on powers of f as
    # d/df: it sends f(y)^n to n f(y)^(n-1)
    f = riccati_series(1, 1, 0, NW)  # e^y - 1
    cf = OpMatrix.umbral_compose(f, NW)
    raising = cf @ OpMatrix.x_op(NW) @ cf.inverse()
    bar_u = raising.bar()
    power = TruncSeries.one(NW)
    powers = [power]
    for _ in range(5):
        power = power * f
        powers.append(power)
    for n in range(1, 5):
        got = [
            sum(bar_u.mat[b][a] * powers[n].coeffs[a] for a in range(min(b + 2, NW + 1)))
            for b in range(bar_u.reliable + 1)
        ]
        expected = [n * v for v in powers[n - 1].coeffs[: len(got)]]
        assert got == expected


def test_series_side_lowering_is_multiplication_by_f():
    # bar of f(D) is multiplication by f(y)
    f = riccati_series(1, 0, 1, NW)  # tan
    lowering = OpMatrix.series_of_d(f, NW)
    bar_d = lowering.bar()
    s = TruncSeries.from_polynomial([1, 2, F(1, 3)], NW)
    got = bar_d.apply_series(s)
    assert got == (f * s).truncate(got.order)


def test_expand_in_own_basis_is_identity():
    f = riccati_series(1, 1, 0, NW)
    g = OpMatrix.umbral_compose(f, NW)
    assert (g.inverse() @ g).equals(OpMatrix.identity(NW))


# ---- differential tests: the integer kernels against plain Fraction loops ----------

wide = st.one_of(
    small,
    st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)
nonzero_wide = wide.filter(lambda v: v != 0)


def reference_matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]


def reference_inverse(a):
    """Column-by-column back-substitution in Fraction arithmetic."""
    n = len(a)
    inv = [[F(0)] * n for _ in range(n)]
    for c in range(n):
        for r in range(c, -1, -1):
            acc = (1 if r == c else 0) - sum((a[r][j] * inv[j][c] for j in range(r + 1, c + 1)), F(0))
            inv[r][c] = acc / a[r][r]
    return inv


def true_raise(mat):
    return max((m - n for m, row in enumerate(mat) for n, v in enumerate(row) if v != 0), default=0)


huge = st.builds(F, st.integers(-(2**600), 2**600), st.integers(1, 2**400))  # several hundred bits


@st.composite
def op_matrices(draw, nw, invertible=False, shape=None):
    """Dense, upper-triangular or banded operators, with zero rows and columns,
    and the factors `__matmul__` takes a shortcut for: unit shifts (x, L, or
    1s in distinct random rows; repeated rows must take no shortcut),
    diagonals with zero entries, and single-entry columns with wide or huge
    values of either sign, near the diagonal and in the last row in the last
    column.  Zero columns are drawn in every shape.

    `raise_` bounds m - n on nonzero entries (0: triangular, nw: dense) and
    `width`, when set, bounds n - m (a band above the diagonal too); the
    other shapes book their true raise.  `shape` picks one shape.
    """
    zero_cols = draw(st.sets(st.integers(0, nw), max_size=2))
    mat = [[F(0)] * (nw + 1) for _ in range(nw + 1)]
    if shape is None:
        shape = "banded" if invertible else draw(st.sampled_from(["banded", "shift", "diagonal", "single"]))
    if shape != "banded":
        if shape == "shift":
            offset = draw(st.sampled_from([1, -1, None]))  # x, L, or 1s in random rows
            rows = [n + offset for n in range(nw + 1)] if offset else draw(st.one_of(
                st.permutations(range(nw + 1)), st.lists(st.integers(0, nw), min_size=nw + 1, max_size=nw + 1)
            ))
            entries = [(row, F(1)) for row in rows]
        elif shape == "diagonal":
            entries = [(n, draw(st.one_of(st.just(F(0)), wide))) for n in range(nw + 1)]
        else:
            rows = [draw(st.integers(max(0, n - 1), n + 1)) for n in range(nw)] + [nw]  # the last row on purpose
            entries = [(row, draw(st.one_of(wide, huge))) for row in rows]
        for n, (row, v) in enumerate(entries):
            if n not in zero_cols and 0 <= row <= nw:
                mat[row][n] = v
        return OpMatrix(mat, nw, max(0, true_raise(mat)), draw(st.integers(0, nw)))
    raise_ = 0 if invertible else draw(st.sampled_from([0, 1, 2, nw]))
    width = draw(st.sampled_from([None, 1, 2]))
    zero_rows = set() if invertible else draw(st.sets(st.integers(0, nw), max_size=2))
    for m in range(nw + 1):
        for n in range(nw + 1):
            if invertible and m == n:
                mat[m][n] = draw(nonzero_wide)
            elif m - n <= raise_ and (width is None or n - m <= width):
                if m not in zero_rows and n not in zero_cols:
                    mat[m][n] = draw(wide)
    reliable = draw(st.integers(0, nw))
    return OpMatrix(mat, nw, raise_, reliable)


def two_product_diag_conj(ratio, op, offset=0):
    """The route diag_conj's one pass replaced, with the errors it raised:
    the values v = ratio.products(nw + 1, offset), then diag(1/v) . op . diag(v)."""
    values = ratio.products(op.nw + 1, offset)
    zero = next((n for n, v in enumerate(values) if v == 0), None)
    if zero is not None:
        raise DiagSingular(zero, "cannot invert zero diagonal value")
    return OpMatrix.diag_op([1 / v for v in values], op.nw) @ op @ OpMatrix.diag_op(values, op.nw)


def outcome(make):
    """What make() returns, or the type and message of the EngineError it raises."""
    try:
        return make()
    except EngineError as e:
        return type(e), str(e)


index_polys = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=3).map(Poly)
ratios = st.builds(IndexRatio, index_polys, index_polys.filter(lambda p: not p.is_zero()))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_diag_conj_matches_the_two_products(data):
    """Columns, raise and reliable block as the two products give them, on
    drawn operators with raise 0 (upper triangular), 1 (a band raising by
    1, as the Wilson bracket display), 2 or nw, zero columns and a short
    reliable block, over drawn ratio rules at integer and non-integer
    offsets; a zero or a pole of the ratio, and a raise past nw, raise what
    the two products raised, message included.  Or over an arbitrary nonzero
    diagonal W, no ratio rule's, its ratios W_{k+1}/W_k given as pairs
    scaled by a nonzero integer of either sign: not in lowest terms, and
    with a negative b_k."""
    nw = data.draw(st.integers(0, 7))
    op = data.draw(op_matrices(nw))
    if data.draw(st.booleans()):
        values = data.draw(st.lists(nonzero_wide, min_size=nw + 1, max_size=nw + 1))
        scales = data.draw(st.lists(st.integers(-5, 5).filter(bool), min_size=nw, max_size=nw))
        pairs = [(k * (w / v).numerator, k * (w / v).denominator) for k, v, w in zip(scales, values, values[1:])]
        got = outcome(lambda: op.diag_conj(pairs))
        ref = outcome(lambda: OpMatrix.diag_op([1 / v for v in values], nw) @ op @ OpMatrix.diag_op(values, nw))
    else:
        ratio = data.draw(ratios)
        offset = data.draw(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)))
        got = outcome(lambda: op.diag_conj(ratio.ratios(nw, offset)))
        ref = outcome(lambda: two_product_diag_conj(ratio, op, offset))
    if not isinstance(ref, OpMatrix):
        assert got == ref
        return
    assert (got.cols, got.raised, got.reliable) == (ref.cols, ref.raised, ref.reliable)
    assert got.reliable == min(op.reliable, nw - op.raised)
    assert_canonical_columns(got)


@pytest.mark.parametrize("raised", [0, 1])
@pytest.mark.parametrize("offset", [0, F(-7, 3)])
def test_diag_conj_of_a_dense_block_with_a_zero_column(raised, offset, monkeypatch):
    """A raise-0 and a raise-1 operator with column 2 zero and reliable
    block nw - 3, conjugated by values negative, integer and not, with no
    operator product made."""
    rows = [[F(m - 2 * n, 1 + m + n) if m <= n + raised and n != 2 else F(0) for n in range(NW + 1)] for m in range(NW + 1)]
    op = OpMatrix(rows, NW, raised, NW - 3)
    ratio = IndexRatio(Poly([F(-3, 4), 5, -2]), Poly([F(7, 9), 1]))
    ref = two_product_diag_conj(ratio, op, offset)
    values = ratio.products(NW + 1, offset)
    assert any(v < 0 for v in values) and any(v.denominator > 1 for v in values)

    def refuse(*args):
        raise AssertionError("diag_conj made an operator product")

    monkeypatch.setattr(OpMatrix, "_product", refuse)
    got = op.diag_conj(ratio.ratios(NW, offset))
    assert (got.cols, got.raised, got.reliable) == (ref.cols, ref.raised, ref.reliable)
    assert (got.raised, got.reliable) == (raised, NW - 3)
    assert all(got.entry(m, n) == rows[m][n] * values[n] / values[m] for m in range(NW + 1) for n in range(NW + 1))


@pytest.mark.parametrize("root", [0, 3, NW - 1])
def test_diag_conj_rejects_a_zero_value_by_its_index(root):
    """A zero ratio at index k leaves the value k + 1 zero, reported at that
    index; a zero past the working order is not read, and a pole anywhere
    below it is reported first, as `products` reports it."""
    ratio = IndexRatio(Poly([-root, 1]), Poly([F(1, 2), 1]))
    with pytest.raises(DiagSingular) as got:
        OpMatrix.identity(NW).diag_conj(ratio.ratios(NW))
    assert got.value.index == root + 1
    assert str(got.value) == f"diagonal ratio singular at index {root + 1}: cannot invert zero diagonal value"
    assert OpMatrix.identity(NW).diag_conj(IndexRatio(Poly([-NW, 1])).ratios(NW)).equals(OpMatrix.identity(NW))
    pole = IndexRatio(Poly([-root, 1]), Poly([-(NW - 1), 1]))
    with pytest.raises(DiagSingular, match=f"at index {NW - 1}: the ratio has a pole at {NW - 1}"):
        OpMatrix.identity(NW).diag_conj(pole.ratios(NW))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_matches_fraction_loops(data):
    """Any two drawn operators, and a drawn unit shift (or 1s in repeated
    rows) and a drawn diagonal times the same right factor."""
    nw = data.draw(st.integers(1, 7))
    b = data.draw(op_matrices(nw))
    for shape in (None, "shift", "diagonal"):
        a = data.draw(op_matrices(nw, shape=shape))
        reliable = min(b.reliable, a.reliable - b.raised, nw - b.raised)
        if reliable < 0:
            with pytest.raises(ReliabilityExhausted):
                a @ b
            continue
        c = a @ b
        expected = reference_matmul(a.mat, b.mat)
        assert c.mat == expected
        assert [[str(v) for v in row] for row in c.mat] == [[str(v) for v in row] for row in expected]
        assert (c.raised, c.reliable) == (a.raised + b.raised, reliable)
        assert true_raise(c.mat) <= c.raised
        assert_canonical_columns(c)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_an_unreduced_product_has_the_entries_of_the_canonical_one(data):
    """`_compared` gives the entries, raise and reliable block of `@` over
    positive denominators, through each shortcut and with an unreduced
    left factor, and `first_difference` reads it as it reads the canonical
    product."""
    nw = data.draw(st.integers(1, 6))
    shapes = st.sampled_from([None, "shift", "diagonal", "single"])
    a, b, c = [data.draw(op_matrices(nw, shape=data.draw(shapes))) for _ in range(3)]
    try:
        ref = (a @ b) @ c
    except ReliabilityExhausted:
        return
    got = a._compared(b)._compared(c)
    assert got.mat == ref.mat and (got.raised, got.reliable) == (ref.raised, ref.reliable)
    assert all(den > 0 for den, _ in got.cols)
    assert got.first_difference(ref) is None and ref.first_difference(got) is None
    other = data.draw(op_matrices(nw))
    assert got.first_difference(other) == ref.first_difference(other)


def assert_same_operator(got, expected):
    assert (got.cols, got.raised, got.reliable) == (expected.cols, expected.raised, expected.reliable)


@pytest.mark.parametrize("nw", [0, 1, 5, 12])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_banded_displays_match_the_product_and_sum_route(nw, data):
    """Each display built directly by `OpMatrix.banded` against the products
    and sums it replaces."""
    def values():
        return data.draw(st.lists(st.one_of(st.just(F(0)), wide, huge), min_size=nw + 1, max_size=nw + 1))

    a, b = values(), values()
    x, d = OpMatrix.x_op(nw), OpMatrix.d_op(nw)
    assert_same_operator(x_times(a, nw), x @ OpMatrix.diag_op(a, nw))
    assert_same_operator(coeff_then_d(a, nw), OpMatrix.diag_op(a, nw) @ d)
    d_b = OpMatrix.banded({-1: [n * v for n, v in enumerate(b)]}, nw)
    assert_same_operator(d_b, d @ OpMatrix.diag_op(b, nw))
    raising = OpMatrix.banded({1: [1] * (nw + 1), 0: a, -1: [n * v for n, v in enumerate(b)]}, nw)
    assert_same_operator(raising, x + OpMatrix.diag_op(a, nw) + d @ OpMatrix.diag_op(b, nw))


@pytest.mark.parametrize("nw", [0, 1, 5, 12])
def test_closed_form_raising_matches_the_product_and_sum_route(nw):
    for cf, a0 in [
        (sheffer_closed_form(ShefferParams(F(1, 2), F(-1, 3), F(2, 5))), None),
        (jacobi_closed_form(JacobiParams(F(1, 3), F(2, 5), F(3, 7))), F(2, 5)),
    ]:
        rec = cf.truncate(nw, a0)
        old = OpMatrix.x_op(nw) + OpMatrix.diag_op(rec.a, nw) + OpMatrix.d_op(nw) @ OpMatrix.diag_op((0,) + rec.b, nw)
        assert_same_operator(closed_form_raising(cf, nw, a0), old)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inverse_matches_back_substitution(data):
    nw = data.draw(st.integers(0, 7))
    op = data.draw(op_matrices(nw, invertible=True))
    inv = op.inverse()
    assert_same_entries(inv.mat, reference_inverse(op.mat))
    assert_canonical_columns(inv)
    assert (inv.raised, inv.reliable) == (0, op.reliable)
    ident = OpMatrix.identity(nw).mat
    assert (op @ inv).mat == ident and (inv @ op).mat == ident
    assert inv.inverse().mat == op.mat


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_inverse_still_rejects(data):
    nw = data.draw(st.integers(1, 7))
    op = data.draw(op_matrices(nw, invertible=True))
    col = data.draw(st.integers(0, nw - 1))
    row = data.draw(st.integers(col + 1, nw))
    raising = [list(r) for r in op.mat]
    raising[row][col] = data.draw(nonzero_wide)
    with pytest.raises(NotInvertible, match="degree-raising"):
        OpMatrix(raising, nw, row - col, nw).inverse()
    k = data.draw(st.integers(0, nw))
    singular = [list(r) for r in op.mat]
    singular[k][k] = F(0)
    with pytest.raises(NotInvertible, match="zero diagonal"):
        OpMatrix(singular, nw, 0, nw).inverse()


# ---- differential tests: the column-integer kernels against Fraction loops ----------

def assert_same_entries(got, expected):
    assert got == expected
    assert [[str(v) for v in row] for row in got] == [[str(v) for v in row] for row in expected]


def assert_canonical_columns(op):
    """Every stored column is (den, nums) with den > 0 and gcd(den, *nums) == 1."""
    assert len(op.cols) == op.nw + 1
    for den, nums in op.cols:
        assert len(nums) == op.nw + 1
        assert den > 0 and math.gcd(den, *nums) == 1


def reference_series_of_d(cs, nw):
    m = [[F(0)] * (nw + 1) for _ in range(nw + 1)]
    for n in range(nw + 1):
        fall = F(1)  # n!/(n-k)!
        for k in range(n + 1):
            if cs[k] != 0:
                m[n - k][n] += cs[k] * fall
            fall *= n - k
    return m


def reference_umbral_compose(fs, nw):
    """(b!/a!) [y^b] phi^a for phi = reverse(f), from the powers of phi."""
    phi = reference_reverse(fs[: nw + 1])
    m = [[F(0)] * (nw + 1) for _ in range(nw + 1)]
    m[0][0] = F(1)
    fact = [F(math.factorial(i)) for i in range(nw + 1)]
    power = [F(1)] + [F(0)] * nw
    for a in range(1, nw + 1):
        power = reference_mul(power, phi)
        for b in range(a, nw + 1):
            if power[b] != 0:
                m[a][b] = fact[b] / fact[a] * power[b]
    return m


def reference_bar(mat, nw, raised, reliable):
    """(bar matrix, raised, reliable) with bar[b][a] = (a!/b!) mat[a][b]."""
    n = nw + 1
    fact = [F(math.factorial(i)) for i in range(n)]
    m = [[F(0)] * n for _ in range(n)]
    for b in range(n):
        for a in range(n):
            if mat[a][b] != 0:
                m[b][a] = fact[a] / fact[b] * mat[a][b]
    out_raised = 0
    limit = min(reliable, nw - raised)
    for col in range(limit + 1):
        for row in range(n):
            if m[row][col] != 0 and row - col > out_raised:
                out_raised = row - col
    return m, out_raised, limit


def reference_apply_series(mat, cs):
    order = min(len(mat) - 1, len(cs) - 1)
    return [sum((mat[b][a] * cs[a] for a in range(b + 1)), F(0)) for b in range(order + 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.lists(wide, min_size=10, max_size=10), st.integers(0, 2))
def test_series_of_d_matches_fraction_loops(nw, cs, extra):
    ell = TruncSeries(cs[: nw + 1 + extra])
    op = OpMatrix.series_of_d(ell, nw)
    assert_same_entries(op.mat, reference_series_of_d(cs, nw))
    assert (op.raised, op.reliable) == (0, nw)
    assert_canonical_columns(op)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.lists(st.one_of(st.just(F(0)), wide), min_size=10, max_size=10), st.integers(0, 2))
def test_series_of_l_is_the_factorial_conjugate_of_series_of_d(nw, cs, extra):
    # the route it replaced: theta! ell(D) theta!^(-1), two diagonal products
    ell = TruncSeries(cs[: nw + 1 + extra])
    op = OpMatrix.series_of_l(ell, nw)
    ref = OpMatrix.series_of_d(ell, nw).diag_conj(IndexRatio(1, Poly([1, 1])).ratios(nw))
    assert (op.cols, op.raised, op.reliable) == (ref.cols, ref.raised, ref.reliable)
    assert all(op.entry(m, n) == (cs[n - m] if m <= n else 0) for m in range(nw + 1) for n in range(nw + 1))
    if nw:
        with pytest.raises(OrderExhausted):
            OpMatrix.series_of_l(ell.truncate(nw - 1), nw)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), nonzero_wide, st.lists(st.one_of(st.just(F(0)), wide), min_size=7, max_size=7))
def test_umbral_compose_matches_powers_of_the_reversion(nw, lead, rest):
    fs = [F(0), lead] + rest[: nw - 1]
    op = OpMatrix.umbral_compose(TruncSeries(fs), nw)
    assert_same_entries(op.mat, reference_umbral_compose(fs, nw))
    assert (op.raised, op.reliable) == (0, nw)
    assert_canonical_columns(op)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bar_matches_fraction_loops(data):
    nw = data.draw(st.integers(0, 7))
    op = data.draw(op_matrices(nw))
    if op.raised > nw:
        with pytest.raises(ReliabilityExhausted):
            op.bar()
        return
    bar = op.bar()
    mat, raised, reliable = reference_bar(op.mat, nw, op.raised, op.reliable)
    assert_same_entries(bar.mat, mat)
    assert (bar.raised, bar.reliable) == (raised, reliable)
    assert_canonical_columns(bar)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_series_matches_fraction_loops(data):
    nw = data.draw(st.integers(0, 7))
    row_finite = data.draw(op_matrices(nw, invertible=True)).bar()
    cs = data.draw(st.lists(wide, min_size=1, max_size=10))
    got = row_finite.apply_series(TruncSeries(cs))
    expected = reference_apply_series(row_finite.mat, cs)
    assert list(got.coeffs) == expected
    assert [str(v) for v in got.coeffs] == [str(v) for v in expected]
    if nw >= 1 and len(cs) >= 2:
        rows = row_finite.mat
        rows[0][1] = data.draw(nonzero_wide)
        with pytest.raises(NotInvertible, match="row-finite"):
            OpMatrix(rows, nw, 1, nw).apply_series(TruncSeries(cs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_difference_and_scale_match_fraction_loops(data):
    nw = data.draw(st.integers(0, 7))
    a = data.draw(op_matrices(nw))
    b = data.draw(op_matrices(nw))
    c = data.draw(wide)
    n = nw + 1
    bookkeeping = (max(a.raised, b.raised), min(a.reliable, b.reliable))
    for got, expected in (
        (a + b, [[a.mat[i][j] + b.mat[i][j] for j in range(n)] for i in range(n)]),
        (a - b, [[a.mat[i][j] - b.mat[i][j] for j in range(n)] for i in range(n)]),
    ):
        assert_same_entries(got.mat, expected)
        assert (got.raised, got.reliable) == bookkeeping
        assert_canonical_columns(got)
    for got, expected in ((a.scale(c), [[c * v for v in row] for row in a.mat]), (-a, [[-v for v in row] for row in a.mat])):
        assert_same_entries(got.mat, expected)
        assert (got.raised, got.reliable) == (a.raised, a.reliable)
        assert_canonical_columns(got)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cut_keeps_the_columns_through_its_bound_and_zeroes_the_rest(data):
    nw = data.draw(st.integers(0, 7))
    a, b = data.draw(op_matrices(nw)), data.draw(op_matrices(nw))
    through = data.draw(st.integers(0, nw + 1))
    cut = b.cut(through)
    assert b.cut(None) is b and (cut is b) == (through >= nw)
    assert_same_entries(cut.mat, [[v if n <= through else F(0) for n, v in enumerate(row)] for row in b.mat])
    assert (cut.raised, cut.reliable) == (b.raised, min(b.reliable, through))
    assert_canonical_columns(cut)
    # a product with a cut right factor: the same columns through the bound
    try:
        full = a @ b
    except ReliabilityExhausted:
        with pytest.raises(ReliabilityExhausted):
            a @ cut
        return
    part = a @ cut
    assert (part.raised, part.reliable) == (full.raised, min(full.reliable, through))
    assert [row[: through + 1] for row in part.mat] == [row[: through + 1] for row in full.mat]


@pytest.mark.parametrize("nw", [1, 4, NW])
def test_umbral_compose_reads_f_through_the_working_order(nw):
    # f known beyond the working order: the operator reads it through nw only
    f = riccati_series(F(1, 3), F(-2, 5), F(3, 4), NW + 3)
    op = OpMatrix.umbral_compose(f, nw)
    ref = OpMatrix.umbral_compose(f.truncate(nw), nw)
    assert (op.cols, op.raised, op.reliable) == (ref.cols, ref.raised, ref.reliable)
    assert_same_entries(op.mat, reference_umbral_compose(list(f.coeffs), nw))


# ---- rows of an inverse and the inverse of C_f, with no inverse ----------------------


def raised_messages(*calls):
    """The (type, text) each call raises, or None where it returns."""
    out = []
    for call in calls:
        try:
            call()
            out.append(None)
        except EngineError as exc:
            out.append((type(exc), str(exc)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mgf_from_gop_matches_bar_of_the_inverse_applied_to_one(data):
    nw = data.draw(st.integers(0, 7))
    gop = data.draw(op_matrices(nw, invertible=True))
    expected = gop.inverse().bar().apply_series(TruncSeries.one(nw))
    with mock.patch.object(OpMatrix, "inverse", side_effect=AssertionError("inverted")):
        got = mgf_from_gop(gop)  # solved from row 0 alone
    assert got == expected
    assert got.coeffs == tuple(v / math.factorial(n) for n, v in enumerate(gop.inverse().mat[0]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mgf_from_gop_rejects_as_the_inverse_does(data):
    nw = data.draw(st.integers(1, 7))
    rows = data.draw(op_matrices(nw, invertible=True)).mat
    col = data.draw(st.integers(0, nw - 1))
    raising = [list(r) for r in rows]
    raising[data.draw(st.integers(col + 1, nw))][col] = data.draw(nonzero_wide)
    k = data.draw(st.integers(0, nw))
    singular = [list(r) for r in rows]
    singular[k][k] = F(0)
    for bad in (OpMatrix(raising, nw, nw, nw), OpMatrix(singular, nw, 0, nw)):
        got, expected = raised_messages(lambda: mgf_from_gop(bad), bad.inverse)
        assert got == expected and got[0] is NotInvertible


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), nonzero_wide, st.lists(st.one_of(st.just(F(0)), wide), min_size=9, max_size=9), st.integers(0, 2))
def test_umbral_compose_inverse_is_built_without_an_inverse(nw, lead, rest, extra):
    t = TruncSeries([F(0), lead] + rest[: nw + extra])  # known to nw, or beyond it
    got = OpMatrix.umbral_compose_inverse(t, nw)
    ref = OpMatrix.umbral_compose(t, nw).inverse()
    assert (got.cols, got.raised, got.reliable) == (ref.cols, ref.raised, ref.reliable)
    # row 1 of C_t: the x coefficients of the binomial polynomials, n! [y^n] reverse(t)
    assert TruncSeries([v / math.factorial(n) for n, v in enumerate(got.inverse().mat[1])]) == t.truncate(nw).reverse()


def test_umbral_compose_inverse_rejects_as_umbral_compose_does():
    for t, nw in ((TruncSeries([1, 1, 2]), 2), (TruncSeries([0, 0, 2]), 2), (TruncSeries([0, 1]), 2)):
        got, expected = raised_messages(
            lambda: OpMatrix.umbral_compose_inverse(t, nw), lambda: OpMatrix.umbral_compose(t, nw)
        )
        assert got == expected and got[0] is not None


def test_a_comparison_past_the_reliable_block_fails():
    # a block that ends before `through` has not shown agreement through it:
    # the check fails at the first column past the block and names both
    ident = OpMatrix.identity(NW)
    short = OpMatrix(ident.mat, NW, 0, NW - 3)
    assert short.first_difference(ident, NW - 3) is None and short.equals(ident)
    assert short.first_difference(ident, NW - 1) == (None, NW - 2, NW - 3, NW - 1)
    check = op_check("planted short block", short, ident, NW - 1)
    assert (check.passed, check.witness) == (False, f"reliable block ends at column {NW - 3}, short of column {NW - 1}")
    # a difference inside the block is still the one reported
    bent = OpMatrix.diag_op([1] * 5 + [2] + [1] * (NW - 5), NW)
    assert op_check("", OpMatrix(bent.mat, NW, 0, NW - 3), ident, NW - 1).witness == "entry (5,5): 2 != 1"
