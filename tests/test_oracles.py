"""Checks of the builders from outside: an oracle that uses neither the
inverse kernel nor recurrence extraction, one that reads the recurrence
off gop's moments by Hankel determinants, and invariance of every build's
reliable block under a wider working order."""
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from umbral.associated import jacobi_assoc, sheffer_assoc, ultra_assoc, wilson_assoc
from umbral.errors import DiagSingular, SingularParams
from umbral.families import (
    HahnParams,
    JacobiParams,
    MultiTermParams,
    FAMILY_MARGIN,
    ShefferParams,
    WilsonParams,
    closed_form_raising,
    hahn_closed_form,
    hahn_family,
    jacobi_closed_form,
    jacobi_family,
    multiterm_family,
    sheffer_closed_form,
    sheffer_family,
    ultraspherical_closed_form,
    ultraspherical_family,
    wilson_family,
)
from umbral.indexfn import Poly
from umbral.opalg import OpMatrix, mgf_from_gop

from test_orthocore import hankel_recurrence

ORDER = 8


def jacobi_dual_raising(p, nw):
    """The Jacobi display x + a_theta + D b_theta, a_0 = a by continuity."""
    return closed_form_raising(jacobi_closed_form(p), nw, a0=p.a)


# ---- Krylov oracle: gop^(-1) = [e_0, u e_0, u^2 e_0, ...] ----------------------------


def krylov_matrix(u: OpMatrix) -> OpMatrix:
    """The matrix whose column n is u^n applied to 1.

    gop^(-1) x^n = u^n gop^(-1) 1 = u^n e_0 for the dual raising operator
    u = gop^(-1) x gop, so this is gop^(-1) when u is right.
    """
    nw = u.nw
    columns, q = [], Poly.const(1)
    for n in range(nw + 1):
        columns.append(q.coeffs + (F(0),) * (nw + 1 - len(q.coeffs)))
        if n < nw:
            q = u.apply_poly(q)
    return OpMatrix([list(row) for row in zip(*columns)], nw, 0, nw)


KRYLOV_CASES = {
    "sheffer": lambda nw: (
        sheffer_family(ShefferParams(F(1, 2), F(1, 3), F(2, 5)), ORDER).gop,
        closed_form_raising(sheffer_closed_form(ShefferParams(F(1, 2), F(1, 3), F(2, 5))), nw),
    ),
    "sheffer-hermite": lambda nw: (
        sheffer_family(ShefferParams(0, 0, F(1, 2)), ORDER).gop,
        closed_form_raising(sheffer_closed_form(ShefferParams(0, 0, F(1, 2))), nw),
    ),
    "ultraspherical": lambda nw: (
        ultraspherical_family(ShefferParams(F(1, 3), F(1, 2), F(1, 4)), ORDER).gop,
        closed_form_raising(ultraspherical_closed_form(ShefferParams(F(1, 3), F(1, 2), F(1, 4))), nw),
    ),
    "hahn": lambda nw: (
        hahn_family(HahnParams(F(1, 2), F(1, 3), F(5, 2)), ORDER).gop,
        closed_form_raising(hahn_closed_form(HahnParams(F(1, 2), F(1, 3), F(5, 2))), nw),
    ),
    "hahn-carlitz": lambda nw: (
        hahn_family(HahnParams(2, F(1, 2), F(1, 2)), ORDER).gop,
        closed_form_raising(hahn_closed_form(HahnParams(2, F(1, 2), F(1, 2))), nw),
    ),
    "jacobi": lambda nw: (
        jacobi_family(JacobiParams(F(1, 3), F(2, 5), F(3, 7)), ORDER).gop,
        jacobi_dual_raising(JacobiParams(F(1, 3), F(2, 5), F(3, 7)), nw),
    ),
}


@pytest.mark.parametrize("name", sorted(KRYLOV_CASES))
def test_krylov_matrix_of_the_closed_form_inverts_gop(name):
    nw = ORDER + FAMILY_MARGIN
    gop, u = KRYLOV_CASES[name](nw)
    assert gop.nw == nw and gop.reliable >= ORDER
    k = krylov_matrix(u)
    diff = (gop @ k).first_difference(OpMatrix.identity(nw), gop.reliable)
    assert diff is None, diff
    assert k.equals(gop.inverse(), through=gop.reliable)


def test_krylov_oracle_sees_a_wrong_closed_form():
    p = JacobiParams(F(1, 3), F(2, 5), F(3, 7))
    nw = ORDER + FAMILY_MARGIN
    gop = jacobi_family(p, ORDER).gop
    u = jacobi_dual_raising(p, nw)
    bent = u + OpMatrix.diag_op([0] * 5 + [F(1, 10**6)] + [0] * (nw - 5), nw)
    # a_5 is first used by column 6 of the Krylov matrix
    diff = (gop @ krylov_matrix(bent)).first_difference(OpMatrix.identity(nw), gop.reliable)
    assert diff is not None and diff[1] == 6


# ---- mgf Hankel: gop's moments read back by determinants, not by the readers --------

SHEFFER = ShefferParams(F(1, 2), F(1, 3), F(2, 5))
ULTRA = ShefferParams(F(1, 3), F(1, 2), F(1, 4))
JACOBI = JacobiParams(F(1, 3), F(2, 5), F(3, 7))
WILSON = WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), F(1, 4))
HANKEL_FAMILIES = {
    "sheffer": lambda: sheffer_family(SHEFFER, ORDER),
    "ultraspherical": lambda: ultraspherical_family(ULTRA, ORDER),
    "hahn": lambda: hahn_family(HahnParams(F(1, 2), F(1, 3), F(5, 2)), ORDER),
    "jacobi": lambda: jacobi_family(JACOBI, ORDER),
    "wilson": lambda: wilson_family(WILSON, ORDER),
}
HANKEL_ASSOC = {
    "sheffer": lambda c: sheffer_assoc(SHEFFER, c, ORDER),
    "ultraspherical": lambda c: ultra_assoc(ULTRA, c, ORDER),
    "jacobi": lambda c: jacobi_assoc(JACOBI, c, ORDER),
    "wilson": lambda c: wilson_assoc(WILSON, c, ORDER),
}


def hankel_agrees(res):
    """The a_n and b_n that gop's moments mu_0..mu_nw reach by Hankel
    determinants (2n + 1 <= nw and 2n <= nw, all within ORDER) equal the
    recurrence the build extracted."""
    a, b, stop = hankel_recurrence(mgf_from_gop(res.gop).laplace().coeffs)
    assert stop is None and len(b) == res.gop.nw // 2 <= ORDER
    assert a == list(res.recurrence.a[: len(a)])
    assert b == list(res.recurrence.b[: len(b)])


@pytest.mark.parametrize("name", sorted(HANKEL_FAMILIES))
def test_hankel_reads_the_family_recurrence_off_its_moments(name):
    hankel_agrees(HANKEL_FAMILIES[name]())


@pytest.mark.parametrize("c", [F(1), F(3, 2)])
@pytest.mark.parametrize("name", sorted(HANKEL_ASSOC))
def test_hankel_reads_the_assoc_recurrence_off_its_moments(name, c):
    hankel_agrees(HANKEL_ASSOC[name](c))


# ---- metamorphic orders: the reliable block does not depend on the working order ------

WIDER = 4  # the second build's extra order: working orders order + 4 and order + 8
positive = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
small = st.fractions(min_value=-2, max_value=2, max_denominator=5)
unit = st.fractions(min_value=0, max_value=1, max_denominator=5)
shifts = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(3, 2), F(-1, 3)])
orders = st.integers(3, 5)


def agree_on_shared_block(build, *args):
    """Build at `order` and at `order` + WIDER and compare gop columns,
    recurrence and f0 on the block both builds call reliable."""
    *params, order = args
    try:
        first, second = (build(*params, order + extra) for extra in (0, WIDER))
    except (SingularParams, DiagSingular):
        reject()  # a parameter guard; its range grows with the working order
    shared = min(first.gop.reliable, second.gop.reliable)
    assert shared >= order
    for n in range(shared + 1):
        assert first.gop.column_poly(n) == second.gop.column_poly(n), n
    for ours, theirs in ((first.recurrence.a, second.recurrence.a), (first.recurrence.b, second.recurrence.b)):
        k = min(len(ours), len(theirs))
        assert ours[:k] == theirs[:k]
    assert min(first.mgf.order, second.mgf.order) >= order
    assert first.mgf.agrees_with(second.mgf)


@settings(max_examples=10, deadline=None)
@given(positive, small, small, orders)
def test_sheffer_family_working_orders(lam, a, b, order):
    agree_on_shared_block(sheffer_family, ShefferParams(lam, a, b), order)


@settings(max_examples=10, deadline=None)
@given(positive, small, small, orders)
def test_ultraspherical_family_working_orders(lam, a, b, order):
    agree_on_shared_block(ultraspherical_family, ShefferParams(lam, a, b), order)


@settings(max_examples=10, deadline=None)
@given(positive, small.filter(lambda v: v != 0), st.fractions(-3, 3, max_denominator=3), orders)
def test_hahn_family_working_orders(lam, a, s, order):
    if s.denominator == 1 and s >= 1:
        reject()
    agree_on_shared_block(hahn_family, HahnParams(lam, a, s), order)


@settings(max_examples=10, deadline=None)
@given(positive, small, unit, orders)
def test_jacobi_family_working_orders(lam, a, r, order):
    agree_on_shared_block(jacobi_family, JacobiParams(lam, a, r), order)


@settings(max_examples=10, deadline=None)
@given(positive, small, unit, unit, unit, orders)
def test_wilson_family_working_orders(lam, a, r, rt, h, order):
    agree_on_shared_block(wilson_family, WilsonParams(lam, a, r, rt, h), order)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 3]), positive, small, st.data(), orders)
def test_multiterm_family_working_orders(n, lam, a, data, order):
    weights = data.draw(st.lists(unit, min_size=n, max_size=n + 1))
    weights[-1] = 1 - sum(weights[:-1])
    agree_on_shared_block(multiterm_family, MultiTermParams(n, lam, a, tuple(weights)), order)


@settings(max_examples=10, deadline=None)
@given(positive, small, small, shifts, orders)
def test_sheffer_assoc_working_orders(lam, a, b, c, order):
    agree_on_shared_block(sheffer_assoc, ShefferParams(lam, a, b), c, order)


@settings(max_examples=10, deadline=None)
@given(positive, small, small, shifts, orders)
def test_ultra_assoc_working_orders(lam, a, b, c, order):
    agree_on_shared_block(ultra_assoc, ShefferParams(lam, a, b), c, order)


@settings(max_examples=10, deadline=None)
@given(positive, small, unit, shifts, orders)
def test_jacobi_assoc_working_orders(lam, a, r, c, order):
    agree_on_shared_block(jacobi_assoc, JacobiParams(lam, a, r), c, order)


@settings(max_examples=10, deadline=None)
@given(positive, small, unit, unit, unit, shifts, orders)
def test_wilson_assoc_working_orders(lam, a, r, rt, h, c, order):
    agree_on_shared_block(wilson_assoc, WilsonParams(lam, a, r, rt, h), c, order)
