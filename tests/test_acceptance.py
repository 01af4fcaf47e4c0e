"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact rational equality unless a criterion states a
numeric tolerance; orders are pinned here, not configurable.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""
from decimal import Decimal
from fractions import Fraction as F

from umbral.associated import (
    jacobi_assoc,
    long_division_checks,
    sheffer_assoc,
    ultra_assoc,
    wilson_assoc,
)
from umbral.binomial import (
    asym_compare,
    falling_factorial_instance,
    geometric_instance,
    lagrange_forms,
    log_poly_expansion_terms,
    lowering_check,
)
from umbral.families import (
    HahnParams,
    JacobiParams,
    ShefferParams,
    WilsonParams,
    hahn_family,
    hahn_mgf,
    jacobi_diffeq_op,
    jacobi_family,
    multiterm_family,
    sheffer_family,
    ultraspherical_family,
    wilson_family,
)
from umbral.indexfn import IndexRatio, Poly, affine
from umbral.opalg import OpMatrix
from umbral.orthocore import (
    ClosedFormRecurrence,
    cd_kernel_identity_check,
    determinant_identity_check,
    dual_recurrence,
    gram_matrix,
    moments_from_recurrence,
    numerator_functional_check,
    polys_from_recurrence,
    recurrence_from_moments,
    tail_from_partial_fractions,
)
from umbral.sampling import (
    rng_for,
    sample_fraction,
    sample_jacobi,
    sample_multiterm,
    sample_recurrence,
    sample_sheffer,
    sample_unit_series_coeffs,
    sample_wilson,
)
from umbral.series import TruncSeries, exp_series

SEED = 0


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def first_failure(checks):
    for c in checks:
        if not c.passed:
            return f"{c.name}: {c.witness}"
    return ""


def test_criterion_01_base_sheffer():
    rng = rng_for(SEED)
    order = 12
    tuples = [ShefferParams(0, 0, F(1, 2))] + [sample_sheffer(rng, order + 6) for _ in range(5)]
    bad = ""
    for p in tuples:
        fam = sheffer_family(p, order)
        names = {c.name: c for c in fam.checks}
        display = names["dual raising display"]
        gen = [c for c in fam.checks if c.name.startswith("generating function")]
        if not display.passed or not all(c.passed for c in gen):
            bad = f"params {p}: {first_failure(fam.checks)}"
            break
    report(1, "base family dual raising + generating function (12,12)", not bad, bad)


def test_criterion_02_ultraspherical():
    rng = rng_for(SEED)
    order = 12
    fam = ultraspherical_family(ShefferParams(1, 0, 1), order)
    cats = [1]
    for m in range(6):
        cats.append(sum(cats[i] * cats[m - i] for i in range(m + 1)))
    moments = fam.mgf.laplace()
    ok = all(moments.coeffs[2 * n] == cats[n] for n in range(7) if 2 * n <= moments.order)
    detail = "" if ok else "even moments are not the Catalan numbers"
    if ok:
        for i in range(5):
            p = sample_sheffer(rng, order + 6, nonzero_lam=True)
            f = ultraspherical_family(p, order)
            if not all(c.passed for c in f.checks):
                ok, detail = False, f"params {p}: {first_failure(f.checks)}"
                break
    report(2, "ultraspherical mgf, derivative and generating displays", ok, detail)


def test_criterion_03_hahn():
    order = 14
    ok, detail = True, ""
    for s in (F(1, 2), F(5, 3), F(-3, 7)):
        fam = hahn_family(HahnParams(2, F(1, 2), s), order)
        if not fam.mgf.agrees_with(hahn_mgf(s, order), order):
            ok, detail = False, f"s={s}: closed-form mgf mismatch"
            break
        if not all(c.passed for c in fam.checks):
            ok, detail = False, f"s={s}: {first_failure(fam.checks)}"
            break
    if ok:
        mu = hahn_mgf(2, 6).laplace()
        rec = recurrence_from_moments(mu, depth=1)
        ok = mu.coeffs[2] - mu.coeffs[1] ** 2 == rec.b[0] == F(1, 4)
        detail = "" if ok else "s=2 variance inconsistent"
    report(3, "factorial-shift family closed-form mgf to order 14", ok, detail)


def test_criterion_04_jacobi_mgf():
    order = 14
    fam = jacobi_family(JacobiParams(2, F(1, 2), 1), order)
    names = {c.name: c for c in fam.checks}
    ok = names["mgf ratio-sum form"].passed and names["mgf product form"].passed
    detail = first_failure(fam.checks)
    if ok:
        expected = (exp_series(1, order + 1) - 1).shift_down(1)
        ok = fam.mgf.agrees_with(expected, order)
        moments = fam.mgf.laplace()
        ok = ok and all(moments.coeffs[n] == F(1, n + 1) for n in range(order + 1))
        detail = "" if ok else "shifted-Legendre closed form failed"
    report(4, "two-parameter family mgf product forms to order 14", ok, detail)


def test_criterion_05_differential_operator():
    order = 12
    _, _, checks = jacobi_diffeq_op(JacobiParams(2, F(1, 2), 1), order)
    ok = all(c.passed for c in checks)
    detail = first_failure(checks)
    if ok:
        rng = rng_for(SEED)
        p = sample_jacobi(rng, order + 6)
        _, _, checks2 = jacobi_diffeq_op(p, order)
        ok = all(c.passed for c in checks2)
        detail = "" if ok else f"params {p}: {first_failure(checks2)}"
    report(5, "second-order operator identity and eigen-action n<=10", ok, detail)


def test_criterion_06_wilson():
    rng = rng_for(SEED)
    order = 14
    tuples = [
        sample_wilson(rng, order + 6, h=0),
        sample_wilson(rng, order + 6, h=1),
        sample_wilson(rng, order + 6),
        sample_wilson(rng, order + 6),
        sample_wilson(rng, order + 6),
    ]
    ok, detail = True, ""
    for p in tuples:
        fam = wilson_family(p, order)
        if not all(c.passed for c in fam.checks):
            ok, detail = False, f"params {p}: {first_failure(fam.checks)}"
            break
        u = fam.gop.inverse() @ OpMatrix.x_op(fam.gop.nw) @ fam.gop
        up, down = u.band_profile(order)
        if up > 1 or down > 1:
            ok, detail = False, f"params {p}: band ({up},{down})"
            break
    report(6, "mixed family tridiagonal on a 14x14 block with reductions", ok, detail)


def test_criterion_07_long_division():
    rng = rng_for(SEED)
    order = 9
    ok, detail = True, ""
    made = 0
    while made < 5 and ok:
        c0 = sample_fraction(rng, nonzero=True)
        c1 = sample_fraction(rng)
        if any(c0 + c1 * n == 0 for n in range(order + 10)):
            continue
        b = TruncSeries(sample_unit_series_coeffs(rng, order + 6))
        checks = long_division_checks(affine(c0, c1), b, order)
        if not all(c.passed for c in checks):
            ok, detail = False, f"ratio {c0}+{c1}n: {first_failure(checks)}"
        made += 1
    report(7, "long division lemma, all displayed identities", ok, detail)


def test_criterion_08_pipeline_triangle():
    order = 10
    ok, detail = True, ""
    builders = (
        ("base", lambda c: sheffer_assoc(ShefferParams(1, 1, 1), c, order)),
        (
            "ultraspherical",
            lambda c: ultra_assoc(ShefferParams(F(1, 2), F(2, 3), F(3, 5)), c, order),
        ),
        ("jacobi", lambda c: jacobi_assoc(JacobiParams(2, F(1, 2), 1), c, order)),
    )
    for name, build in builders:
        for c in (1, 2, 3):
            res = build(c)
            if not all(ch.passed for ch in res.checks):
                ok, detail = False, f"{name} c={c}: {first_failure(res.checks)}"
                break
        if not ok:
            break
    report(8, "associated pipeline triangle for integer shifts", ok, detail)


def test_criterion_09_rational_association():
    order = 10
    ok, detail = True, ""
    for c in (F(1, 2), F(-1, 3)):
        for name, build, closed in (
            (
                "base",
                lambda cc: sheffer_assoc(ShefferParams(1, 0, 1), cc, order),
                sheffer_family(ShefferParams(1, 0, 1), order).closed_form,
            ),
            (
                "ultraspherical",
                lambda cc: ultra_assoc(
                    ShefferParams(F(1, 2), F(2, 3), F(3, 5)), cc, order
                ),
                ultraspherical_family(
                    ShefferParams(F(1, 2), F(2, 3), F(3, 5)), order
                ).closed_form,
            ),
        ):
            res = build(c)
            shifted = closed.assoc(c)
            for n in range(1, 7):
                if res.recurrence.a_at(n) != shifted.a_fn(n) or res.recurrence.b_at(n) != shifted.b_fn(n):
                    ok, detail = False, f"{name} c={c} at n={n}"
                    break
            if not ok:
                break
        if not ok:
            break
    if ok:
        base = ultraspherical_family(
            ShefferParams(F(1, 2), F(2, 3), F(3, 5)), 8
        ).closed_form
        ok = base.assoc(F(1, 2)).assoc(F(1, 3)).equals(base.assoc(F(5, 6)))
        detail = "" if ok else "shift additivity failed"
    report(9, "rational association matches closed forms and is additive", ok, detail)


def test_criterion_10_wilson_associated():
    order = 12
    p = WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), F(1, 4))
    ok, detail = True, ""
    for tag, res in (
        ("generic c=3/2", wilson_assoc(p, F(3, 2), order)),
        ("c=0", wilson_assoc(p, 0, order)),
        (
            "h=0",
            wilson_assoc(
                WilsonParams(2, F(1, 3), F(1, 2), F(1, 5), 0), F(3, 2), order
            ),
        ),
    ):
        if not all(c.passed for c in res.checks):
            ok, detail = False, f"{tag}: {first_failure(res.checks)}"
            break
    report(10, "associated mixed family with factorization and reductions", ok, detail)


def test_criterion_11_orthogonality_core():
    rng = rng_for(SEED)
    order = 16
    ok, detail = True, ""
    for i in range(10):
        rec = sample_recurrence(rng, order // 2 + 6)
        fam = polys_from_recurrence(rec, order // 2 + 6)
        gf = moments_from_recurrence(rec, order).moment_gf
        back = recurrence_from_moments(gf)
        d = min(len(back.a) - 1, len(back.b), order // 2 - 1)
        if back.a[: d + 1] != rec.a[: d + 1] or back.b[:d] != rec.b[:d]:
            ok, detail = False, f"rec {i}: round trip"
            break
        f0 = gf.borel()
        g = gram_matrix(fam, f0, 6)
        if any(
            g[a][b] != (fam.norms[a] if a == b else 0) for a in range(7) for b in range(7)
        ):
            ok, detail = False, f"rec {i}: gram"
            break
        failed = [
            c for c in (
                cd_kernel_identity_check(fam, 6, f"rec {i}: kernel"),
                numerator_functional_check(fam, f0, 6, f"rec {i}: numerator functional"),
                determinant_identity_check(fam, 6, f"rec {i}: determinant"),
            ) if not c.passed
        ]
        if failed:
            ok, detail = False, f"{failed[0].name} ({failed[0].witness})"
            break
    report(11, "orthogonality core identities at 10 random recurrences", ok, detail)


def test_criterion_12_duality():
    ok, detail = True, ""
    cf = ClosedFormRecurrence(
        IndexRatio(Poly([0, 1])), IndexRatio(Poly([1, 1]))
    )
    if not dual_recurrence(dual_recurrence(cf)).equals(cf):
        ok, detail = False, "involution"
    rng = rng_for(SEED)
    for _ in range(5):
        cf = ClosedFormRecurrence(
            IndexRatio(Poly([sample_fraction(rng), sample_fraction(rng)])),
            IndexRatio(Poly([sample_fraction(rng), sample_fraction(rng, nonzero=True)])),
        )
        if not dual_recurrence(dual_recurrence(cf)).equals(cf):
            ok, detail = False, "involution (random)"
            break
    if ok:
        terms = 8
        cheb = ClosedFormRecurrence(IndexRatio.const(0), affine(0, 1).reciprocal())
        hermite = ClosedFormRecurrence(IndexRatio.const(0), IndexRatio.const(1))
        for name, base in (("reciprocal-index", cheb), ("constant-b", hermite)):
            dual = dual_recurrence(base)
            rec = dual.truncate(terms + 6)
            fam = polys_from_recurrence(rec, terms + 4)
            gf = moments_from_recurrence(rec, terms + 3).moment_gf
            if gf.coeffs[:terms] != tail_from_partial_fractions(fam, terms):
                ok, detail = False, f"negative-index tail ({name})"
                break
    report(12, "index duality involution and negative-index tails", ok, detail)


def test_criterion_13_binomial_extensions():
    ok, detail = True, ""
    em1 = exp_series(1, 14) - 1
    geo = TruncSeries.from_function(lambda i: 0 if i == 0 else 1, 14)
    for f in (em1, geo):
        failed = [c.name for c in lagrange_forms(f, 10, 12) if not c.passed]
        if failed:
            ok, detail = False, failed[0]
            break
    if ok:
        for s in (F(1, 2), F(5, 3), F(-2, 5)):
            if not all(c.passed for c in lowering_check(em1, s, 8)):
                ok, detail = False, f"lowering at s={s}"
                break
    if ok:
        # Each case expects the exponent of the first omitted term that does
        # not vanish.  For the falling factorials at alpha = 1/2,
        # ln p_s(2s) = ln Gamma(2s+1) - ln Gamma(s+1), and Stirling's series
        # for ln Gamma has only odd powers of 1/z after the constant: the
        # s^-2 term is identically zero (alpha(1-alpha) has zero 4th
        # derivative), so the level-2 residual is 7/(2880 s^3) + O(s^-5).
        # The geometric instance has a nonzero s^-2 term and shows the
        # generic rate s^-level.
        # (instance, alpha, level, expected exponent, limit of residual*s^3)
        cases = [
            (falling_factorial_instance(), F(1, 2), 1, -1, None),
            (falling_factorial_instance(), F(1, 2), 2, -3, Decimal(7) / 2880),
            (geometric_instance(), F(1, 5), 1, -1, None),
            (geometric_instance(), F(1, 5), 2, -2, None),
            (geometric_instance(), F(1, 5), 3, -3, None),
        ]
        for inst, alpha, level, expected, limit in cases:
            r = asym_compare(inst, alpha, [40, 80], level, digits=60)
            est = Decimal(r["order_estimate"])
            if abs(est - expected) > Decimal("0.3"):
                ok = False
                detail = (
                    f"{inst.name} level {level} estimate {est:.4f} "
                    f"not within 0.3 of {expected}"
                )
                break
            if limit is not None:
                # the next Stirling term contributes about -1.2e-7 at s = 80
                row = r["rows"][-1]
                scaled = Decimal(row["residual"]) * row["s"] ** 3
                if abs(scaled - limit) >= Decimal("1e-6"):
                    ok = False
                    detail = (
                        f"{inst.name} level {level} residual*s^3 at s={row['s']} "
                        f"is {scaled:.9f}, not within 1e-6 of {limit:.9f}"
                    )
                    break
    if ok:
        # Magnitude of the geometric s^-2 term, not only its rate: the
        # level-2 residual times s^2 is C2 + C3/s + C4/s^2 + ...; two
        # Richardson steps over s = 80, 160, 320 remove C3 and C4 (measured
        # error 2.1e-4), and the result must match the s^-2 term that the
        # expansion adds at level 3 (7/5 at alpha = 1/5).
        inst, alpha = geometric_instance(), F(1, 5)
        r = asym_compare(inst, alpha, [80, 160, 320], 2, digits=60)
        g = [Decimal(row["residual"]) * row["s"] ** 2 for row in r["rows"]]
        h = [2 * g[1] - g[0], 2 * g[2] - g[1]]
        extrapolated = (4 * h[1] - h[0]) / 3
        term = log_poly_expansion_terms(inst, alpha, 80)[3] * 80 ** 2
        if abs(extrapolated - term) >= Decimal("1e-3"):
            ok = False
            detail = (
                f"geometric level-2 residual*s^2 extrapolates to {extrapolated:.6f}, "
                f"but the expansion's s^-2 term is {term:.6f}"
            )
    report(13, "binomial extensions: inversion, lowering, asymptotic orders", ok, detail)


def test_criterion_14_multiterm():
    rng = rng_for(SEED)
    order = 12
    ok, detail = True, ""
    for n in (3, 4):
        for extended in (False, True):
            for i in range(3):
                p = sample_multiterm(rng, n, order + 4, extended=extended)
                fam = multiterm_family(p, order)
                if not all(c.passed for c in fam.checks):
                    ok, detail = False, f"n={n} ext={extended} #{i}: {first_failure(fam.checks)}"
                    break
            if not ok:
                break
        if not ok:
            break
    report(14, "higher-order recurrences: band profile and inverse relation", ok, detail)
