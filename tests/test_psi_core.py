"""The operators and series a ShefferCore reads off its base polynomial psi,
against the routes they replace.

C_f and f'(D)^alpha C_f come from psi column by column
(`OpMatrix.umbral_compose_ode` at alpha = 0 and at alpha) and inner(c) as
the operator of the pair (psi^alpha, y/psi) (`OpMatrix.sheffer_pair`).  The
routes they replace are the references here: C_f by Lagrange inversion
(`OpMatrix.umbral_compose(f)`), f'(D)^alpha C_f as that product, and
inner(c) as the product C_tf^(-1) f'(D)^alpha C_f.  Each build that reads a
psi-built operator compares it with a product route in a named check, and
one planted coefficient of psi fails that check in the column where the
operator first departs from its reference.

omega' and f'(omega)^alpha, for omega = reverse(f/f'), come from one
Lagrange-Buermann diagonal of psi's powers (`series.psi_diagonal`); their
references are the reversion of f/f' and the composition f'(omega).  The
binomial operator C_delta of delta = (e^(k y) - 1)/k is read off its base
1 + k y the same way C_f is.
"""
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbral import families
from umbral.associated import jacobi_assoc, ultra_assoc, wilson_assoc
from umbral.families import (
    JacobiParams,
    MultiTermParams,
    ShefferParams,
    WilsonParams,
    jacobi_diffeq_op,
    jacobi_family,
    multiterm_family,
    riccati_core,
    sheffer_family,
    ultraspherical_family,
    wilson_family,
)
from umbral.indexfn import Poly
from umbral.opalg import OpMatrix
from umbral.series import (
    TruncSeries,
    as_rat,
    exp_series,
    riccati_series,
    solve_autonomous_ode,
    t_transform,
)

ORDER = 5
SHEFFER = ShefferParams(F(1, 2), F(1, 3), F(2, 5))
JACOBI = JacobiParams(F(1, 3), F(2, 5), F(3, 7))
WILSON = WilsonParams(F(1, 2), F(1, 3), F(1, 2), F(1, 3), F(1, 4))
ASSOC_C = F(3, 2)

small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
nonzero = small.filter(lambda v: v != 0)


def multiterm(n):
    return MultiTermParams(n, F(1, 2), F(1, 3), (F(1, n),) * n)


def same_op(x, y):
    return (x.cols, x.raised, x.reliable) == (y.cols, y.raised, y.reliable)


def lagrange_c_f(core):
    return OpMatrix.umbral_compose(core.f, core.nw)


def product_inner(core, c):
    """C_tf^(-1) f'(D)^alpha C_f with alpha = -c - 1/lam, as a product with
    C_f by Lagrange inversion: the reference for inner(c)."""
    return core.c_tf_inv @ core.fpow(-as_rat(c) - 1 / core.lam) @ lagrange_c_f(core)


def cores_of(build, monkeypatch) -> list:
    """The cores `build` makes, after it ran."""
    made, make = [], families.sheffer_core
    monkeypatch.setattr(families, "sheffer_core", lambda *args: made.append(make(*args)) or made[-1])
    build()
    return made


# -- the psi-built operators equal their references on the whole matrix ------------------


@settings(max_examples=40, deadline=None)
@given(small, small, small, st.integers(1, 12))
@example(F(-1), 0, 0, 8)
@example(F(-3, 2), 0, F(1, 2), 8)
@example(F(2), F(-1, 2), 0, 8)
def test_psi_built_c_f_matches_the_lagrange_pass(lam, a, b, nw):
    core = riccati_core(lam, a, b, nw)
    assert same_op(core.c_f, lagrange_c_f(core))


def assert_the_sheffer_operator_matches_the_product(psi, f, lam, nw):
    """umbral_compose_ode(psi, nw, alpha) against f'(D)^alpha times the
    psi-built C_f, for f' = psi(f); at alpha = 0 against the Lagrange-pass
    C_f, storage and all."""
    c_f = OpMatrix.umbral_compose_ode(psi, nw)
    assert same_op(OpMatrix.umbral_compose_ode(psi, nw, 0), OpMatrix.umbral_compose(f, nw))
    for alpha in diagonal_alphas(lam, nw):
        ref = OpMatrix.series_of_d(psi(f).pow_fraction(alpha), nw) @ c_f
        assert same_op(OpMatrix.umbral_compose_ode(psi, nw, alpha), ref), alpha


@settings(max_examples=40, deadline=None)
@given(nonzero, small, small, st.integers(1, 12))
@example(F(-1), 0, 0, 8)
@example(F(-3, 2), 0, F(1, 2), 8)
@example(F(2), F(-1, 2), 0, 8)
@example(F(1, 3), F(2, 5), F(3, 7), 12)
def test_the_sheffer_operator_read_off_a_riccati_psi_matches_the_product_route(lam, a, b, nw):
    core = riccati_core(lam, a, b, nw)
    assert_the_sheffer_operator_matches_the_product(core.psi, core.f, lam, nw)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 4]), nonzero, nonzero, st.integers(1, 10))
@example(3, F(1, 2), F(1, 3), 8)
@example(4, F(-2, 3), F(5, 2), 10)
def test_the_sheffer_operator_read_off_a_multiterm_psi_matches_the_product_route(n, lam, a, nw):
    psi = Poly([1])
    for _ in range(n):  # the multiterm base (1 + lam a y/n)^n
        psi = psi * Poly([1, lam * a / n])
    f = solve_autonomous_ode(psi.coeffs, nw)
    assert_the_sheffer_operator_matches_the_product(psi, f, lam, nw)


@settings(max_examples=30, deadline=None)
@given(nonzero, small, small, st.integers(1, 10), st.sampled_from([0, F(1, 2), 2, F(-2, 3)]))
@example(F(-1), 0, 0, 8, F(1, 2))
@example(F(1, 3), F(2, 5), 0, 8, 2)
def test_psi_built_inner_matches_the_product_route(lam, a, b, nw, c):
    core = riccati_core(lam, a, b, nw)
    assert same_op(core.inner(c), product_inner(core, c))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_multiterm_core_reads_the_same_operators_off_psi(n, monkeypatch):
    (core,) = cores_of(lambda: multiterm_family(multiterm(n), 8), monkeypatch)
    psi = Poly([1])
    for _ in range(n):
        psi = psi * Poly([1, core.lam * F(1, 3) / n])
    assert core.psi == psi
    assert core.fprime.agrees_with(core.f.derivative())  # f' = psi(f)
    assert same_op(core.c_f, lagrange_c_f(core))
    for c in (0, F(1, 2), 2):
        assert same_op(core.inner(c), product_inner(core, c))


def assert_sigma_free_identity(core):
    """x tf(D) C_f == C_f theta on every column, the sigma-free half of the
    conjugation lemma (R C_f = C_f (1 + sigma theta) for R = 1 + sigma x tf(D)).
    Both sides are exact: tf(D) lowers the degree, so x loses no row."""
    nw = core.nw
    lhs = OpMatrix.x_op(nw) @ OpMatrix.series_of_d(core.tf, nw) @ core.c_f
    assert lhs.reliable == nw
    assert lhs.cols == (core.c_f @ OpMatrix.diag_op(range(nw + 1), nw)).cols


@settings(max_examples=30, deadline=None)
@given(small, small, small, st.integers(1, 12))
@example(F(-1), 0, 0, 8)
@example(F(1, 3), F(2, 5), F(3, 7), 12)
def test_x_tf_of_d_c_f_is_c_f_theta_over_a_riccati_base(lam, a, b, nw):
    assert_sigma_free_identity(riccati_core(lam, a, b, nw))


@pytest.mark.parametrize("n", [3, 4])
def test_x_tf_of_d_c_f_is_c_f_theta_over_the_multiterm_base(n, monkeypatch):
    (core,) = cores_of(lambda: multiterm_family(multiterm(n), 8), monkeypatch)
    assert len(core.psi.coeffs) == n + 1
    assert_sigma_free_identity(core)


# -- a planted coefficient of psi fails the covering check in the reference column --------


def planted_psis(psi, bump=F(7, 3)):
    """(k, psi with bump added to its y^k coefficient) for k = 1 .. deg + 1."""
    for k in range(1, len(psi.nums) + 1):
        coeffs = list(psi.coeffs) + [F(0)]
        coeffs[k] += bump
        yield k, Poly(coeffs)


def plant_c_f(core, psi):
    """C_f read off psi; returns (planted, reference)."""
    core.c_f = OpMatrix.umbral_compose_ode(psi, core.nw)
    return core.c_f, lagrange_c_f(core)


def plant_sheffer_gop(core, psi):
    """The Sheffer gop f'(D)^(-1/lam) C_f read off psi, the psi the build
    reads from here on; returns (planted, reference), the reference the
    product of f'(D)^(-1/lam) and the Lagrange-pass C_f."""
    ref = core.fpow(-1 / core.lam) @ lagrange_c_f(core)
    core.psi = psi
    return families.sheffer_op(core), ref


def plant_inner(c):
    def plant(core, psi):
        """inner(c) read off psi; returns (planted, reference)."""
        bad = core._memo[("inner", as_rat(c))] = OpMatrix.sheffer_pair(psi, -as_rat(c) - 1 / core.lam, core.nw)
        return bad, product_inner(core, c)
    return plant


def check_column(check):
    """The operator column of a failed check's first witness: n of entry
    (m,n) or of the reader's fault in column n, or the coefficient of a
    generating-function column."""
    found = re.match(
        r"entry (?:outside band at )?\(\d+,(\d+)\)|raising entry at column (\d+)|coefficient (\d+)", check.witness
    )
    return int(next(g for g in found.groups() if g))


def planted_build(build, plant, k, monkeypatch):
    """The checks of `build` with psi's coefficient k planted in one operator
    of its core, and the first column where that operator departs from its
    reference.  A planted gop is seldom three-term; the build returns all
    the same, and its raising operator fails the check that compares it."""
    departs = []
    make = families.sheffer_core

    def planted_core(*args):
        core = make(*args)
        bad, ref = plant(core, dict(planted_psis(core.psi))[k])
        departs.append(bad.first_difference(ref)[1])
        return core

    with monkeypatch.context() as m:
        m.setattr(families, "sheffer_core", planted_core)
        result = build()
    assert len(set(departs)) == 1
    return result.checks, departs[0]


def trick(sigma):
    return f"conjugation-trick sigma={sigma} (composition form)"


COVERING = [  # id -> (build, planted operator, its covering check, columns the check reads ahead)
    ("sheffer-gop", lambda: sheffer_family(SHEFFER, ORDER), plant_sheffer_gop, "generating function", 0),
    ("ultra-c_f", lambda: ultraspherical_family(SHEFFER, ORDER), plant_c_f, trick(SHEFFER.lam), 0),
    ("ultra-inner", lambda: ultraspherical_family(SHEFFER, ORDER), plant_inner(0), trick(SHEFFER.lam), 0),
    ("jacobi-c_f", lambda: jacobi_family(JACOBI, ORDER), plant_c_f, trick(JACOBI.kappa), 0),
    ("jacobi-inner-kappa", lambda: jacobi_family(JACOBI, ORDER), plant_inner(1 / JACOBI.kappa - 1 / JACOBI.lam),
     trick(JACOBI.kappa), 0),
    ("wilson-inner", lambda: wilson_family(WILSON, ORDER), plant_inner(0), trick(WILSON.lam), 0),
    ("multiterm-c_f", lambda: multiterm_family(multiterm(3), ORDER), plant_c_f, trick(F(1, 2)), 0),
    # column n of the raising operator reads gop's column n + 1
    ("ultra_assoc-inner", lambda: ultra_assoc(SHEFFER, ASSOC_C, ORDER), plant_inner(ASSOC_C),
     "shifted dual raising display", 1),
    ("jacobi_assoc-inner", lambda: jacobi_assoc(JACOBI, ASSOC_C, ORDER), plant_inner(ASSOC_C),
     "shifted dual raising display", 1),
    ("wilson_assoc-inner", lambda: wilson_assoc(WILSON, ASSOC_C, ORDER), plant_inner(ASSOC_C),
     "conjugated square identity", 0),
]


@pytest.mark.parametrize("build, plant, name, ahead", [case[1:] for case in COVERING], ids=[c[0] for c in COVERING])
def test_a_planted_psi_coefficient_fails_the_covering_check_in_the_reference_column(build, plant, name, ahead, monkeypatch):
    checks = build().checks
    (clean,) = [c for c in checks if c.name.startswith(name)]
    assert clean.passed
    for k in (1, 2, 3):
        checks, departs = planted_build(build, plant, k, monkeypatch)
        (got,) = [c for c in checks if c.name.startswith(name)]
        assert departs - ahead <= ORDER
        assert not got.passed and check_column(got) == departs - ahead, (k, departs, got)


# -- omega' and f'(omega)^alpha from one diagonal of psi's powers ------------------------


def diagonal_alphas(lam, nw):
    """0, 1/2, -1/lam, 1 + 1/lam, and a negative integer alpha with alpha + n = 0
    for an n <= nw, where psi^(alpha+n) = 1."""
    return [F(0), F(1, 2), -1 / lam, 1 + 1 / lam, F(-((nw + 1) // 2))]


def assert_diagonal_matches_the_reversion_route(core, f_above):
    """omega' = G_0 against the derivative of reverse(f/f') made one order
    above nw from f_above, and f'(omega)^alpha = G_alpha/G_0 against
    f'.compose(omega)^alpha, for the diagonal G of `series.psi_diagonal`."""
    assert core.omega_prime == t_transform(f_above).reverse().derivative()
    fprime_omega = core.fprime.compose(core.tf.reverse())
    for alpha in diagonal_alphas(core.lam, core.nw):
        assert core.fprime_omega_pow(alpha) == fprime_omega.pow_fraction(alpha), alpha


@settings(max_examples=40, deadline=None)
@given(nonzero, small, small, st.integers(1, 12))
@example(F(-1), 0, 0, 8)
@example(F(-3, 2), 0, F(1, 2), 8)
@example(F(2), F(-1, 2), 0, 8)
@example(F(-1, 3), F(2, 5), F(-3, 7), 12)
def test_the_psi_diagonal_matches_the_reversion_route(lam, a, b, nw):
    core = riccati_core(lam, a, b, nw)
    assert_diagonal_matches_the_reversion_route(core, riccati_series(lam, a, b, nw + 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_multiterm_diagonal_matches_the_reversion_route(n, monkeypatch):
    (core,) = cores_of(lambda: multiterm_family(multiterm(n), 8), monkeypatch)
    assert_diagonal_matches_the_reversion_route(core, solve_autonomous_ode(core.psi.coeffs, core.nw + 1))


@pytest.mark.parametrize("nw", [8, 18, 32])
@pytest.mark.parametrize("k", [1, F(2, 3), F(-1, 2), 0, F(-27, 4)])
def test_c_delta_read_off_its_base_matches_the_lagrange_pass(k, nw):
    delta = (exp_series(k, nw) - 1) / k if k else TruncSeries.x(nw)
    assert same_op(OpMatrix.umbral_compose_ode(Poly([1, k]), nw), OpMatrix.umbral_compose(delta, nw))


SERIES_SIDE_BUILDS = [  # the builds that read omega' or f'(omega)^alpha and not the lemma
    pytest.param(lambda: jacobi_diffeq_op(JACOBI, ORDER)[2], id="jacobi_diffeq_op"),
    pytest.param(lambda: ultra_assoc(SHEFFER, ASSOC_C, ORDER).checks, id="ultra_assoc"),
    pytest.param(lambda: jacobi_assoc(JACOBI, ASSOC_C, ORDER).checks, id="jacobi_assoc"),
    pytest.param(lambda: wilson_assoc(WILSON, ASSOC_C, ORDER).checks, id="wilson_assoc"),
]


@pytest.mark.parametrize("build", SERIES_SIDE_BUILDS)
def test_series_side_builds_neither_compose_nor_build_c_tf_inv(build, monkeypatch):
    seen = []
    inverse, compose = OpMatrix.umbral_compose_inverse, TruncSeries.compose
    monkeypatch.setattr(OpMatrix, "umbral_compose_inverse", staticmethod(lambda g, nw: seen.append("C^-1") or inverse(g, nw)))
    monkeypatch.setattr(TruncSeries, "compose", lambda s, g: seen.append("compose") or compose(s, g))
    assert all(c.passed for c in build())
    assert not seen, seen
    # both spies are live
    riccati_core(1, 1, 1, 4).c_tf_inv
    TruncSeries.x(3).compose(TruncSeries.x(3))
    assert seen == ["C^-1", "compose"]


def planted_diagonal(k, bump=F(7, 3)):
    """psi_diagonal with bump added to coefficient k of every series it makes."""
    make = families.psi_diagonal

    def planted(psi, alpha, order):
        coeffs = list(make(psi, alpha, order).coeffs)
        coeffs[k] += bump
        return TruncSeries(coeffs)

    return planted


@pytest.mark.parametrize("k", range(1, ORDER + 1))
@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: jacobi_diffeq_op(JACOBI, ORDER)[2], "omega derivative closed form", id="jacobi_diffeq_op"),
    pytest.param(lambda: multiterm_family(multiterm(3), ORDER).checks, "omega algebraic relation", id="multiterm"),
    pytest.param(lambda: jacobi_assoc(JACOBI, ASSOC_C, ORDER).checks, "omega'-cancellation display", id="jacobi_assoc"),
])
def test_a_planted_diagonal_coefficient_fails_the_omega_check_at_that_coefficient(build, name, k, monkeypatch):
    (clean,) = [c for c in build() if c.name == name]
    assert clean.passed
    monkeypatch.setattr(families, "psi_diagonal", planted_diagonal(k))  # jacobi_assoc's gop reads it too
    (got,) = [c for c in build() if c.name == name]
    assert not got.passed and check_column(got) == k, got


@pytest.mark.parametrize("k", range(1, ORDER + 1))
@pytest.mark.parametrize("build, name, first", [
    pytest.param(lambda: ultra_assoc(SHEFFER, ASSOC_C, ORDER).checks, "shifted dual raising display", 0,
                 id="ultra_assoc"),
    pytest.param(lambda: wilson_assoc(WILSON, ASSOC_C, ORDER).checks, "shifted raising operator tridiagonal", 2,
                 id="wilson_assoc"),
])
def test_a_planted_diagonal_coefficient_in_gop_fails_the_raising_check(build, name, first, k, monkeypatch):
    """Here the fault enters gop alone, through coefficient k of ell, and the
    raising operator departs in column k - 1, which reads gop's column k.
    The ultraspherical display fails there.  Wilson's flag, with no display,
    fails with the reader's fault in the first column that leaves the band,
    k - 1 or 2: columns 0 and 1 have no row outside it."""
    monkeypatch.setattr(families, "psi_diagonal", planted_diagonal(k))
    (got,) = [c for c in build() if c.name == name]
    assert not got.passed and check_column(got) == max(k - 1, first), got
