from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from umbral import families
from umbral.associated import jacobi_assoc, sheffer_assoc, ultra_assoc, wilson_assoc
from umbral.errors import SingularParams
from umbral.families import (
    HahnParams,
    JacobiParams,
    MultiTermParams,
    ShefferCore,
    ShefferParams,
    WilsonParams,
    comment_generator_bands,
    hahn_family,
    hahn_mgf,
    jacobi_diffeq_op,
    jacobi_family,
    linear_guard,
    multiterm_family,
    riccati_core,
    sheffer_family,
    ultraspherical_family,
    wilson_family,
)
from umbral.opalg import OpMatrix
from umbral.orthocore import moments_from_recurrence, recurrence_from_moments
from umbral.sampling import rng_for, sample_jacobi, sample_multiterm, sample_wilson
from umbral.series import TruncSeries, exp_series
from umbral.verify import RunConfig, suite_base


def all_pass(result):
    bad = [(c.name, c.witness) for c in result.checks if not c.passed]
    assert not bad, bad
    return result


# ---- base family ----------------------------------------------------------------


def test_hermite_branch():
    fam = all_pass(sheffer_family(ShefferParams(0, 0, F(1, 2)), 10))
    assert all(v == 0 for v in fam.recurrence.a)
    assert all(v == 1 for v in fam.recurrence.b)
    assert fam.mgf == TruncSeries.from_polynomial([0, 0, F(1, 2)], fam.mgf.order).exp()


def test_exponential_branch_coefficients():
    fam = all_pass(sheffer_family(ShefferParams(1, 1, 0), 10))
    # a_n = a(1 + lam n) = 1 + n, so a_1 = 2
    assert fam.recurrence.a[1] == 2
    assert fam.recurrence.a[0] == 1


def test_tangent_branch_coefficients():
    fam = all_pass(sheffer_family(ShefferParams(1, 0, 1), 10))
    # x + (2+theta)D in display order: canonical b_n = n + 1
    assert fam.recurrence.b[:4] == (2, 3, 4, 5)


def test_sheffer_guard():
    with pytest.raises(SingularParams):
        sheffer_family(ShefferParams(F(-1, 3), 1, 1), 8)  # 1 + lam*3 = 0


# ---- first deformation ------------------------------------------------------------


def test_ultraspherical_catalan_moments():
    fam = all_pass(ultraspherical_family(ShefferParams(1, 0, 1), 12))
    cats = [1]
    for m in range(6):
        cats.append(sum(cats[i] * cats[m - i] for i in range(m + 1)))
    moments = fam.mgf.laplace()
    for n in range(6):
        assert moments.coeffs[2 * n] == cats[n]
    assert fam.recurrence.b[:4] == (1, F(1, 2), F(1, 3), F(1, 4))


def test_ultraspherical_exponential_factor():
    p = ShefferParams(F(1, 2), F(2, 3), F(3, 5))
    fam = all_pass(ultraspherical_family(p, 10))
    base = all_pass(ultraspherical_family(ShefferParams(p.lam, 0, p.b), 10))
    assert fam.mgf == (exp_series(p.a, fam.mgf.order) * base.mgf).truncate(fam.mgf.order)


def test_ultraspherical_rejects_lam_zero():
    with pytest.raises(SingularParams):
        ultraspherical_family(ShefferParams(0, 0, 1), 8)


# ---- factorial-shift deformation ----------------------------------------------------


def test_hahn_closed_form_mgf():
    fam = all_pass(hahn_family(HahnParams(2, F(1, 2), F(7, 3)), 12))
    assert fam.mgf.agrees_with(hahn_mgf(F(7, 3), 12), 12)


def test_hahn_rejects_small_integer_s():
    with pytest.raises(SingularParams):
        hahn_family(HahnParams(2, F(1, 2), 2), 10)


def test_hahn_carlitz_variance():
    f0 = hahn_mgf(2, 10)
    assert f0 == (exp_series(1, 10) + 1) / 2
    rec = recurrence_from_moments(f0.laplace(), depth=1)
    mu = f0.laplace()
    assert mu.coeffs[2] - mu.coeffs[1] ** 2 == rec.b[0] == F(1, 4)


def test_hahn_carlitz_b_display():
    # b_theta = theta(s^2 - theta^2)/(4(4 theta^2 - 1)) at theta = 1: (s^2-1)/12
    s = F(7, 3)
    fam = all_pass(hahn_family(HahnParams(2, F(1, 2), s), 10))
    assert fam.recurrence.b[0] == (s * s - 1) / 12


def test_hahn_s_zero_limit():
    # (e^{sx}-1)/s -> x as s -> 0, so the closed-form mgf is x/(e^x-1)
    fam = all_pass(hahn_family(HahnParams(2, F(1, 2), 0), 4))
    assert fam.mgf.coeffs == (1, F(-1, 2), F(1, 12), 0, F(-1, 720))


def test_hahn_generic_parameters():
    all_pass(hahn_family(HahnParams(F(1, 2), F(2, 3), F(5, 7)), 10))


# ---- two-parameter deformation --------------------------------------------------------


def test_jacobi_shifted_legendre():
    fam = all_pass(jacobi_family(JacobiParams(2, F(1, 2), 1), 12))
    moments = fam.mgf.laplace()
    assert all(moments.coeffs[n] == F(1, n + 1) for n in range(13))


def test_jacobi_kappa_branch_reduces_to_ultraspherical():
    # beta = kappa makes the diagonal ratio collapse to the one-parameter case
    p = JacobiParams(F(1, 2), F(2, 3), 1)
    assert p.beta == p.kappa
    fam = all_pass(jacobi_family(p, 10))
    ultra = all_pass(ultraspherical_family(ShefferParams(p.lam, p.a, p.b), 10))
    # recurrences agree even though the working chains differ
    assert fam.recurrence.a[:8] == ultra.recurrence.a[:8]
    assert fam.recurrence.b[:8] == ultra.recurrence.b[:8]


def test_jacobi_lambda_guard():
    with pytest.raises(SingularParams):
        JacobiParams(0, 1, 1)
    with pytest.raises(SingularParams):
        JacobiParams(-2, 1, 1)


def test_jacobi_diffeq_eigenvalues():
    p = JacobiParams(2, F(1, 2), 1)
    lhs, gop, checks = jacobi_diffeq_op(p, 12)
    assert all(c.passed for c in checks)
    all_pass(jacobi_family(p, 12))
    # apply to p_1 = x - mu_1: eigenvalue (1+lam)^2 = 9
    assert lhs.apply_poly(gop.column_poly(1)) == 9 * gop.column_poly(1)


def test_jacobi_exceptional_constant_term():
    # kappa = 1 with r != 1: the display is 0/0 at theta = 0 and the true
    # value is a, fixed by continuity in the parameter
    fam = all_pass(jacobi_family(JacobiParams(2, F(1, 2), 0), 10))
    assert fam.recurrence.a[0] == F(1, 2)
    assert fam.recurrence.a[1] == 1


# ---- mixed deformation ------------------------------------------------------------------


def test_wilson_generic_tridiagonal():
    fam = all_pass(wilson_family(WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), F(1, 3)), 12))
    u = fam.gop.inverse() @ OpMatrix.x_op(fam.gop.nw) @ fam.gop
    up, down = u.band_profile(12)
    assert up == 1 and down == 1


def test_wilson_h_zero_reduction():
    p = WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), 0)
    fam = all_pass(wilson_family(p, 10))
    red = all_pass(jacobi_family(JacobiParams(2, F(1, 3), F(1, 5)), 10))
    assert fam.gop.equals(red.gop, 10)


def test_wilson_h_one_same_mixture():
    all_pass(wilson_family(WilsonParams(2, F(1, 3), F(1, 2), F(1, 2), 1), 10))


# ---- higher-order recurrences --------------------------------------------------------------


def test_multiterm_reduces_to_jacobi():
    m = all_pass(multiterm_family(MultiTermParams(2, 2, F(1, 2), (F(1, 3), F(2, 3))), 10))
    j = all_pass(jacobi_family(JacobiParams(2, F(1, 2), F(1, 3)), 10))
    assert m.gop.equals(j.gop, 10)


def test_multiterm_four_term_band():
    fam = all_pass(multiterm_family(MultiTermParams(3, 1, 1, (F(1, 3), F(1, 3), F(1, 3))), 10))
    u = fam.gop.inverse() @ OpMatrix.x_op(fam.gop.nw) @ fam.gop
    assert u.band_profile(10) == (1, 2)


def test_multiterm_extended_band():
    fam = all_pass(
        multiterm_family(MultiTermParams(3, 1, 1, (F(1, 4), F(1, 4), F(1, 4), F(1, 4))), 10)
    )
    u = fam.gop.inverse() @ OpMatrix.x_op(fam.gop.nw) @ fam.gop
    assert u.band_profile(10) == (1, 2)


def test_multiterm_weight_guard():
    with pytest.raises(SingularParams):
        MultiTermParams(3, 1, 1, (F(1, 2), F(1, 2), F(1, 2)))


# ---- generator probes ------------------------------------------------------------------------


def test_established_generators_are_tridiagonal():
    rows = comment_generator_bands(JacobiParams(2, F(1, 3), F(2, 5)), 8)
    assert len(rows) == 4
    for name, band, ok in rows:
        assert ok, (name, band)


def test_a_generator_band_below_the_tridiagonal_is_not_ok(monkeypatch):
    """A band (0, 2) fails the probe: each side of the band is bounded on its
    own, not the (up, down) pair in tuple order."""
    monkeypatch.setattr(families, "conjugate", lambda m, t: OpMatrix.l_op(m.nw) @ OpMatrix.l_op(m.nw))
    rows = comment_generator_bands(JacobiParams(2, F(1, 3), F(2, 5)), 8)
    assert [(band, ok) for _, band, ok in rows] == [((0, 2), False)] * 4


# ---- two-pipeline moment checks across families ------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: sheffer_family(ShefferParams(F(1, 3), F(-2, 5), F(1, 7)), 10),
        lambda: ultraspherical_family(ShefferParams(F(2, 3), F(1, 5), F(-1, 2)), 10),
        lambda: jacobi_family(JacobiParams(F(3, 4), F(1, 2), F(2, 7)), 10),
    ],
)
def test_mgf_matches_recurrence_moments(build):
    fam = all_pass(build())
    via_rec = moments_from_recurrence(fam.recurrence, 10).f0
    assert fam.mgf.agrees_with(via_rec, 10)


def test_raising_lowering_commutator_across_families():
    builders = (
        sheffer_family(ShefferParams(F(1, 3), F(-2, 5), F(1, 7)), 8),
        ultraspherical_family(ShefferParams(F(2, 3), F(1, 5), F(-1, 2)), 8),
        jacobi_family(JacobiParams(F(3, 4), F(1, 2), F(2, 7)), 8),
        wilson_family(WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), F(1, 3)), 8),
    )
    for fam in builders:
        all_pass(fam)
        nw = fam.gop.nw
        inv = fam.gop.inverse()
        u = fam.gop @ OpMatrix.x_op(nw) @ inv
        d = fam.gop @ OpMatrix.d_op(nw) @ inv
        comm = d @ u - u @ d
        assert comm.equals(OpMatrix.identity(nw))


# ---- the Sheffer core ------------------------------------------------------------------


@pytest.mark.parametrize("nw", [1, 2, 7, 16])
@pytest.mark.parametrize("lam, a, b", [(1, 0, 1), (F(1, 2), F(1, 3), F(2, 5)), (2, F(-1, 2), F(1, 8)), (0, 1, 1)])
def test_sheffer_core_reads_omega_and_c_tf_off_one_pass(lam, a, b, nw):
    """C_tf^(-1) is built from the powers of tf/y, and omega is row 1 of C_tf."""
    core = riccati_core(lam, a, b, nw)
    assert core.omega == core.tf.reverse()
    c_tf_inv = OpMatrix.umbral_compose(core.tf, nw).inverse()
    assert (core.c_tf_inv.cols, core.c_tf_inv.raised, core.c_tf_inv.reliable) == (
        c_tf_inv.cols, c_tf_inv.raised, c_tf_inv.reliable
    )


# ---- one computation per factor -------------------------------------------------------


SHEFFER = ShefferParams(F(1, 3), F(2, 5), F(3, 7))
JACOBI = JacobiParams(F(1, 3), F(2, 5), F(3, 7))


def wilson(h):
    return WilsonParams(F(1, 3), F(2, 5), F(3, 7), F(1, 2), h)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: sheffer_family(SHEFFER, 12), id="sheffer"),
        pytest.param(lambda: ultraspherical_family(SHEFFER, 12), id="ultraspherical"),
        pytest.param(lambda: hahn_family(HahnParams(2, F(1, 2), F(1, 2)), 12), id="hahn"),
        pytest.param(lambda: jacobi_family(JACOBI, 12), id="jacobi"),
        pytest.param(lambda: wilson_family(wilson(F(1, 4)), 12), id="wilson"),
        pytest.param(lambda: sheffer_assoc(SHEFFER, 1, 12), id="sheffer_assoc"),
        pytest.param(lambda: ultra_assoc(SHEFFER, 1, 12), id="ultra_assoc"),
        pytest.param(lambda: jacobi_assoc(JACOBI, F(3, 2), 12), id="jacobi_assoc"),
        pytest.param(lambda: wilson_assoc(wilson(F(1, 4)), F(3, 2), 12), id="wilson_assoc-h=1/4"),
        pytest.param(lambda: wilson_assoc(wilson(0), F(3, 2), 12), id="wilson_assoc-h=0"),
    ],
)
def test_no_build_inverts_an_operator(build, monkeypatch):
    invert, seen = OpMatrix.inverse, []
    monkeypatch.setattr(OpMatrix, "inverse", lambda op: seen.append(op) or invert(op))
    all_pass(build())
    assert not seen, seen
    # a fresh operator's inverse shows that every inversion would have been
    # counted
    probe = OpMatrix.diag_op([1, 2, 3], 2)
    probe.inverse()
    assert seen == [probe]


def test_the_core_makes_each_factor_once(monkeypatch):
    invert, inverted = OpMatrix.inverse, []
    monkeypatch.setattr(OpMatrix, "inverse", lambda op: inverted.append(op) or invert(op))
    core = riccati_core(F(1, 3), F(2, 5), F(3, 7), 8)
    assert core.inner(F(3, 2)) is core.inner(F(3, 2))
    assert core.inner() is core.inner(0)
    assert core.fpow(F(-3)) is core.fpow(-3)
    assert core.fprime_omega_pow(F(1, 2)) is core.fprime_omega_pow(F(1, 2))
    assert core.c_tf_inv is core.c_tf_inv and core.omega is core.omega
    assert core.tf_inv_fpow(F(-3)) is core.tf_inv_fpow(-3)
    assert not inverted and not hasattr(core, "c_tf")  # the core inverts nothing and keeps no C_tf


def spy_on_c_tf_inv(monkeypatch) -> list:
    """The working order of each C_tf^(-1) a core makes from here on."""
    made = []
    make = vars(ShefferCore)["c_tf_inv"].func

    def spy(core):
        made.append(core.nw)
        return make(core)

    monkeypatch.setattr(ShefferCore, "c_tf_inv", property(spy))
    return made


def test_sheffer_builds_never_make_c_tf(monkeypatch):
    """No core makes C_tf, and a Sheffer build never reads C_tf^(-1) either."""
    made = spy_on_c_tf_inv(monkeypatch)
    composed = []
    compose = families.umbral_compose_and_reverse
    monkeypatch.setattr(families, "umbral_compose_and_reverse", lambda f, nw: composed.append(f) or compose(f, nw))
    all_pass(sheffer_family(SHEFFER, 12))
    assert len(composed) == 1  # C_f alone, where C_tf was once composed next to it
    checks = suite_base(RunConfig(order=8, seed=1, samples=2))
    assert checks and all(c.passed for c in checks)
    assert not made, made
    ultraspherical_family(SHEFFER, 4)  # the spy is live: this build reads C_tf^(-1)
    assert 8 in made


@pytest.mark.parametrize("build", [
    pytest.param(lambda: sheffer_family(SHEFFER, 8), id="sheffer"),
    pytest.param(lambda: ultraspherical_family(SHEFFER, 8), id="ultraspherical"),
    pytest.param(lambda: jacobi_family(JACOBI, 8), id="jacobi"),
    pytest.param(lambda: wilson_family(wilson(F(1, 4)), 8), id="wilson"),
])
def test_a_build_never_inverts_its_family_operator(build, monkeypatch):
    invert, inverted = OpMatrix.inverse, []

    def counted(op):
        inverted.append(op)
        return invert(op)

    monkeypatch.setattr(OpMatrix, "inverse", counted)
    fam = all_pass(build())
    assert not [op for op in inverted if op is fam.gop or op.cols == fam.gop.cols]
    fam.gop.inverse()
    assert inverted[-1] is fam.gop  # the hook sees the family operator


# ---- parameter records against the loop guards and Fraction ratios ---------------------
# The references below evaluate every linear guard k by k and every ratio in
# Fraction arithmetic, recomputing kappa and beta on each read.


def ref_kappa(lam):
    return 2 * lam / (2 + lam)


def ref_beta(lam, r):
    return r * ref_kappa(lam) + (1 - r) * lam


def ref_sheffer_guard(p, nw):
    if p.lam != 0:
        for k in range(nw + 2):
            if 1 + p.lam * k == 0:
                raise SingularParams("1+lambda*k", f"k={k}")


def ref_sheffer_ratio(p, m):
    return 1 / (1 + p.lam * m)


def ref_jacobi_guard(p, nw, r=None):
    lam, kappa, beta = p.lam, ref_kappa(p.lam), ref_beta(p.lam, p.r if r is None else r)
    for k in range(nw + 2):
        for name, v in (("1+lambda*k", lam), ("1+kappa*k", kappa), ("1+beta*k", beta)):
            if 1 + v * k == 0:
                raise SingularParams(name, f"k={k}")
        if 2 + kappa * k == 0:
            raise SingularParams("2+kappa*k", f"k={k}")


def ref_jacobi_ratio(p, m):
    return (1 + ref_beta(p.lam, p.r) * m) / ((1 + p.lam * m) * (1 + ref_kappa(p.lam) * m))


def ref_mixing_ratio(p, n):
    lam = p.lam
    num = p.h * (1 + ref_beta(lam, p.r) * n) * (1 + lam * (n + 1)) ** 2 + (1 - p.h) * (1 + ref_beta(lam, p.rt) * n)
    return num / ((1 + lam * n) * (1 + ref_kappa(lam) * n))


def ref_wilson_guard(p, nw):
    ref_jacobi_guard(p, nw)
    ref_jacobi_guard(p, nw, p.rt)
    for k in range(nw + 1):
        if ref_mixing_ratio(p, k) == 0:
            raise SingularParams("mixing ratio", f"zero at k={k}")


def ref_lam_k(p, k):
    den = p.n + k * p.lam
    if den == 0:
        raise SingularParams("lambda_k", f"k={k}")
    return F(p.n) * p.lam / den


def ref_multiterm_ratio(p, m):
    acc = p.t[p.n] if p.extended else F(0)
    for k in range(p.n):
        acc += p.t[k] / (1 + ref_lam_k(p, k) * m)
    return acc


def ref_multiterm_guard(p, nw):
    for k in range(p.n):
        lk = ref_lam_k(p, k)
        for m in range(nw + 2):
            if 1 + lk * m == 0:
                raise SingularParams("1+lambda_k*m", f"k={k}, m={m}")
    for m in range(nw + 1):
        if ref_multiterm_ratio(p, m) == 0:
            raise SingularParams("weight ratio", f"zero at m={m}")


def outcome(fn, *args):
    """fn's value, or the type of its error with a SingularParams' name and message."""
    try:
        return fn(*args)
    except SingularParams as e:
        return SingularParams, e.guard, str(e)
    except ZeroDivisionError:
        return ZeroDivisionError


def assert_ratio_matches(new, ref, nw, slopes):
    """new and ref agree at integer offsets, at c = 3/2 past them, and at the
    poles -1/v of the linear factors 1 + v m."""
    points = [*range(-2, nw + 3), *(F(3, 2) + m for m in range(-2, nw + 3)), *(-1 / v for v in slopes if v)]
    for m in points:
        assert outcome(new, m) == outcome(ref, m), m


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.fractions(-3, 3, max_denominator=4), st.integers(1, 30), st.booleans()), min_size=1, max_size=4),
    st.integers(0, 30),
)
def test_linear_guard_matches_the_loop(drawn, count):
    # half the slopes v = -c/j put a root at j; c = 0 puts one at k = 0
    forms = [(f"form{i}", c, -c / j if hit and c else F(j, 7)) for i, (c, j, hit) in enumerate(drawn)]

    def loop():
        for k in range(count):
            for name, c, v in forms:
                if c + v * k == 0:
                    raise SingularParams(name, f"k={k}")

    assert outcome(linear_guard, forms, count) == outcome(loop)

# -1/k and -2/k cover lambda = -1/k and the lambdas -2/(k+1), -2/(2k+1) at
# which 2 + kappa k or 1 + kappa k vanishes
LAMS = st.one_of(SMALL, st.builds(lambda c, k: F(-c, k), st.integers(1, 2), st.integers(1, 24)))
NWS = st.integers(0, 20)


def draw_r(draw, lam):
    """r, chosen for beta = r kappa + (1-r) lam = -1/k half the time (kappa != lam whenever lam != 0)."""
    if draw(st.booleans()):
        return (F(-1, draw(st.integers(1, 24))) - lam) / (ref_kappa(lam) - lam)
    return draw(SMALL)


@st.composite
def square_case_fields(draw):
    lam = draw(LAMS)
    assume(lam not in (0, -2))
    return lam, draw(SMALL), draw_r(draw, lam)


@st.composite
def wilson_params(draw):
    """Records with beta or beta_t = -1/k, or with h zeroing the mixing numerator at k0, often."""
    lam, a, r = draw(square_case_fields())
    rt, h = draw_r(draw, lam), draw(SMALL)
    if draw(st.booleans()):
        k0 = draw(st.integers(0, 12))
        lhs = (1 + ref_beta(lam, r) * k0) * (1 + lam * (k0 + 1)) ** 2
        rhs = 1 + ref_beta(lam, rt) * k0
        if lhs != rhs:
            h = rhs / (rhs - lhs)
    return WilsonParams(lam, a, r, rt, h)


@settings(max_examples=100, deadline=None)
@given(LAMS, SMALL, SMALL, NWS)
def test_sheffer_guard_and_ratio_match_the_loop_references(lam, a, b, nw):
    p = ShefferParams(lam, a, b)
    assert outcome(p.guard, nw) == outcome(ref_sheffer_guard, p, nw)
    assert_ratio_matches(p.ratio, lambda m: ref_sheffer_ratio(p, m), nw, [lam])


@settings(max_examples=100, deadline=None)
@given(square_case_fields(), NWS)
def test_jacobi_guard_and_ratio_match_the_loop_references(fields, nw):
    p = JacobiParams(*fields)
    lam, r = p.lam, p.r
    assert (p.kappa, p.beta, p.b) == (ref_kappa(lam), ref_beta(lam, r), lam * p.a * p.a / 4)
    assert outcome(p.guard, nw) == outcome(ref_jacobi_guard, p, nw)
    assert_ratio_matches(p.ratio, lambda m: ref_jacobi_ratio(p, m), nw, [lam, p.kappa, p.beta])


@settings(max_examples=100, deadline=None)
@given(wilson_params(), NWS)
@example(WilsonParams(1, 1, 0, 0, F(-1, 3)), 20)  # the mixing numerator vanishes at k = 0
def test_wilson_guard_and_mixing_ratio_match_the_loop_references(p, nw):
    assert p.beta_t == ref_beta(p.lam, p.rt)
    assert outcome(p.guard, nw) == outcome(ref_wilson_guard, p, nw)
    assert_ratio_matches(p.mixing_ratio, lambda m: ref_mixing_ratio(p, m), nw, [p.lam, p.kappa])


@st.composite
def multiterm_params(draw):
    """Records whose lambda makes some lambda_k or 1 + lambda_k m vanish, or
    whose last two weights zero the weight ratio at m0, often."""
    n = draw(st.integers(2, 4))
    k, m = draw(st.integers(0, n - 1)), draw(st.integers(0, 12))
    lam = draw(st.one_of(SMALL, st.just(F(-n, n * m + k) if n * m + k else F(-n, 1))))
    assume(lam != 0)
    count = n + draw(st.integers(0, 1))
    t = [draw(SMALL) for _ in range(count - 2)]
    u = [1 / (1 + n * lam / (n + j * lam) * m) if n + j * lam and n * lam * m + n + j * lam else None for j in range(n)]
    u = (u + [F(1)])[:count]  # the extra weight enters the ratio as t_n * 1
    if draw(st.booleans()) and None not in u and u[-2] != u[-1]:
        rest = 1 - sum(t)
        tail = (-sum(tk * uk for tk, uk in zip(t, u)) - u[-1] * rest) / (u[-2] - u[-1])
        t += [tail, rest - tail]
    else:
        t += [draw(SMALL)]
        t.append(1 - sum(t))
    return MultiTermParams(n, lam, draw(SMALL), tuple(t))


@settings(max_examples=100, deadline=None)
@given(multiterm_params(), NWS)
def test_multiterm_guard_and_ratio_match_the_loop_references(p, nw):
    assert outcome(p.guard, nw) == outcome(ref_multiterm_guard, p, nw)
    singular = [k for k in range(p.n) if p.n + k * p.lam == 0]
    if singular:  # no ratio exists; reading it names the first singular k
        assert outcome(lambda: p.ratio) == outcome(ref_lam_k, p, singular[0])
        return
    assert p.lam_ks == tuple(ref_lam_k(p, k) for k in range(p.n))
    assert_ratio_matches(p.ratio, lambda m: ref_multiterm_ratio(p, m), nw, p.lam_ks)


@pytest.mark.parametrize("seed", range(8))
def test_samplers_draw_the_records_the_loop_guards_drew(seed, monkeypatch):
    def draws():
        rng = rng_for(seed)
        return [
            *(sample_jacobi(rng, nw) for nw in (18, 3)),
            *(sample_wilson(rng, nw, h) for nw, h in ((18, None), (18, 0), (18, 1), (4, None))),
            *(sample_multiterm(rng, n, nw, extended) for n, nw, extended in ((2, 16, False), (3, 16, True), (4, 5, False))),
        ]

    new = draws()
    monkeypatch.setattr(JacobiParams, "guard", ref_jacobi_guard)
    monkeypatch.setattr(WilsonParams, "guard", ref_wilson_guard)
    monkeypatch.setattr(MultiTermParams, "guard", ref_multiterm_guard)
    assert draws() == new
