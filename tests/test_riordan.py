"""The exponential Riordan arrays against one reference, and the covering
checks against a fault in the one kernel that assembles them.

An operator of Sheffer type is the exponential Riordan array (g, h): column n
is n! [y^n] g e^(x h), so entry (a, n) is (n!/a!) [y^(n-a)] g (h/y)^a (Roman,
The Umbral Calculus, 1984).  `series_of_d` is (ell, y), `umbral_compose` is
(1, reverse(f)), `umbral_compose_inverse` is (1, g), `sheffer_pair` is
(psi^alpha, y/psi), all four assembled by `OpMatrix._exp_riordan`, and
`umbral_compose_ode` is (psi^alpha, phi) for phi = reverse(f), f' = psi(f),
read off psi by a column recurrence.  `riordan_reference` builds each from
Fraction series arithmetic; every pair below is made by a route that shares
nothing with the constructor's (phi as the integral of 1/psi, psi^alpha as
exp(alpha log psi), reverse(f) by the Fraction Lagrange pass).

A diagonal similarity S^(-1) A S, S = diag(2^n), planted in the kernel
weights entry (a, n) by 2^(n-a).  It commutes with products and inverses, so
every identity among assembled arrays alone survives it; the checks that
compare an assembled array with an operator made another way must not.  A
second fault, the scale c^(a-n) of `sheffer_pair`'s rows dropped, is held to
the same rule over the kernel calls that scale.
"""
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbral.families import HahnParams, hahn_family, jacobi_family, ultraspherical_family
from umbral.indexfn import Poly
from umbral.opalg import OpMatrix
from umbral.series import TruncSeries, riccati_series
from umbral.verify import SUITES, RunConfig, run_suite

from test_psi_core import JACOBI, ORDER, SHEFFER, check_column, same_op
from test_series import reference_reverse

coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
nonzero = coeff.filter(lambda v: v != 0)
alphas = st.sampled_from([F(0), F(1), F(1, 2), F(-1), F(-3), F(-2, 3), F(5, 4)])


def riordan_reference(g: TruncSeries, h: TruncSeries, nw: int) -> OpMatrix:
    """The array (g, h), entry (a, n) = (n!/a!) [y^(n-a)] g (h/y)^a, from
    TruncSeries arithmetic, for g and h known at least to order nw."""
    h_over_y, power = h.shift_down(1), TruncSeries.one(nw)
    rows = [[F(0)] * (nw + 1) for _ in range(nw + 1)]
    for a in range(nw + 1):
        row = g * power
        for n in range(a, nw + 1):
            rows[a][n] = F(math.factorial(n), math.factorial(a)) * row.coefficient(n - a)
        power = power * h_over_y
    return OpMatrix(rows, nw, 0, nw)


@st.composite
def psis(draw):
    """A base polynomial psi with psi(0) = 1 and degree up to 3."""
    return Poly([1] + draw(st.lists(coeff, min_size=1, max_size=3)))


def psi_power(psi: Poly, alpha, nw: int) -> TruncSeries:
    """psi^alpha as exp(alpha log psi), not by the power recursion."""
    return (TruncSeries.from_polynomial(psi.coeffs, nw).log() * alpha).exp()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.lists(st.one_of(st.just(F(0)), coeff), min_size=7, max_size=7))
@example(1, [F(0)] * 7)  # every row zero
@example(3, [F(0), F(0), F(5, 3), F(0), F(0), F(0), F(0)])
def test_series_of_d_is_the_array_of_ell_and_y(nw, cs):
    ell = TruncSeries(cs[: nw + 1])
    assert same_op(OpMatrix.series_of_d(ell, nw), riordan_reference(ell, TruncSeries.x(nw), nw))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), nonzero, st.lists(st.one_of(st.just(F(0)), coeff), min_size=5, max_size=5))
@example(1, F(2, 3), [F(0)] * 5)
@example(2, F(-1), [F(0)] * 5)
@example(3, F(1, 2), [F(0), F(3, 4), F(0), F(0), F(0)])
def test_umbral_compose_and_its_inverse_are_the_arrays_of_1_and_h(nw, lead, rest):
    fs = [F(0), lead] + rest[: nw - 1]
    f, one = TruncSeries(fs), TruncSeries.one(nw)
    assert same_op(OpMatrix.umbral_compose(f, nw), riordan_reference(one, TruncSeries(reference_reverse(fs)), nw))
    assert same_op(OpMatrix.umbral_compose_inverse(f, nw), riordan_reference(one, f, nw))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), psis(), alphas)
@example(1, Poly([1, F(1, 3)]), F(-1, 2))
@example(2, Poly([1, F(2, 3), F(0), F(5, 2)]), F(-3))
@example(3, Poly([1, F(0), F(-7, 4)]), F(5, 4))
@example(3, Poly([1]), F(1, 2))  # psi = 1: rows all 1, phi = y
def test_sheffer_pair_is_the_array_of_psi_power_and_y_over_psi(nw, psi, alpha):
    base = TruncSeries.from_polynomial(psi.coeffs, nw)
    ref = riordan_reference(psi_power(psi, alpha, nw), TruncSeries.x(nw) / base, nw)
    assert same_op(OpMatrix.sheffer_pair(psi, alpha, nw), ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), psis(), alphas)
@example(1, Poly([1, F(1, 3)]), F(-1, 2))
@example(2, Poly([1, F(2, 3), F(0), F(5, 2)]), F(-3))
@example(3, Poly([1, F(0), F(-7, 4)]), F(5, 4))
def test_umbral_compose_ode_is_the_array_of_psi_power_and_phi(nw, psi, alpha):
    # phi = reverse(f) for f' = psi(f) has phi' = 1/psi
    phi = (1 / TruncSeries.from_polynomial(psi.coeffs, nw)).integral()
    ref = riordan_reference(psi_power(psi, alpha, nw), phi, nw)
    assert same_op(OpMatrix.umbral_compose_ode(psi, nw, alpha), ref)


# -- a diagonal similarity planted in the kernel ---------------------------------------


def plant_similarity(monkeypatch):
    """Weight entry (a, n) of every assembled array by 2^(n-a): row series
    coefficient k, read at n = a + k, gains 2^k."""
    real = OpMatrix._exp_riordan

    def similar(cls, rows, nw, c=1):
        return real([(den, [v * 2**k for k, v in enumerate(nums)]) for den, nums in rows], nw, c)

    monkeypatch.setattr(OpMatrix, "_exp_riordan", classmethod(similar))


def test_the_planted_similarity_survives_identities_among_assembled_arrays(monkeypatch):
    nw = 8
    f = riccati_series(F(1, 2), F(1, 3), F(2, 5), nw)
    clean = OpMatrix.umbral_compose(f, nw)
    plant_similarity(monkeypatch)
    planted = OpMatrix.umbral_compose(f, nw)
    assert planted.first_difference(clean)[:2] == (1, 2)  # C_f's first entry off the diagonal
    assert (planted @ OpMatrix.umbral_compose_inverse(f, nw)).equals(OpMatrix.identity(nw))


HAHN = HahnParams(2, F(1, 2), F(1, 2))
COVERING = [  # build, the end of the covering check's name, the column where it fails
    pytest.param(lambda: ultraspherical_family(SHEFFER, ORDER), "(composition form)", 2, id="ultraspherical-lemma"),
    pytest.param(lambda: jacobi_family(JACOBI, ORDER), "(composition form)", 2, id="jacobi-lemma"),
    pytest.param(lambda: ultraspherical_family(SHEFFER, ORDER), "dual raising display", 0, id="ultraspherical-display"),
    pytest.param(lambda: hahn_family(HAHN, ORDER), "expansion in binomial basis", 2, id="hahn-expansion"),
]


@pytest.mark.parametrize("build, name, column", COVERING)
def test_the_planted_similarity_fails_each_covering_check_in_its_column(build, name, column, monkeypatch):
    clean = [c for c in build().checks if c.name.endswith(name)]
    assert clean and all(c.passed for c in clean)
    plant_similarity(monkeypatch)
    got = [c for c in build().checks if c.name.endswith(name)]
    assert len(got) == len(clean)
    assert all(not c.passed and check_column(c) == column for c in got), [(c.name, c.witness) for c in got]


def drop_scale(monkeypatch):
    """Assemble every array as if its rows were read at c = 1: entry (a, n)
    loses c^(a-n), which only `sheffer_pair` passes (c != 1)."""
    real = OpMatrix._exp_riordan
    monkeypatch.setattr(OpMatrix, "_exp_riordan", classmethod(lambda cls, rows, nw, c=1: real(rows, nw)))


def count_kernel_calls(monkeypatch) -> list:
    """Wrap the kernel as it stands (planted or not); the list gets each
    call's scale c."""
    planted, calls = OpMatrix._exp_riordan, []

    def counted(cls, rows, nw, c=1):
        calls.append(c)
        return planted(rows, nw, c)

    monkeypatch.setattr(OpMatrix, "_exp_riordan", classmethod(counted))
    return calls


@pytest.mark.parametrize("suite", list(SUITES))
@pytest.mark.parametrize("plant, hit", [
    pytest.param(plant_similarity, lambda c: True, id="similarity"),
    pytest.param(drop_scale, lambda c: c != 1, id="dropped-scale"),
])
def test_every_suite_the_planted_fault_reaches_fails_a_check(suite, plant, hit, monkeypatch):
    """The rule, not a list: a suite that makes a kernel call the fault acts
    on (any call for the similarity, a scaled one for the dropped scale)
    fails at least one check, at order 8, seed 0, 2 samples."""
    plant(monkeypatch)
    calls = count_kernel_calls(monkeypatch)
    checks = run_suite(suite, RunConfig(order=8, seed=0, samples=2))
    assert not any(map(hit, calls)) or any(not c.passed for c in checks), (suite, len(calls))
