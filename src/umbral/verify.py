"""Named verification suites over randomly sampled guarded parameters.

Each suite returns a list of Check records; the CLI maps them to exit codes
and the acceptance tests assert on them.  Every suite is deterministic in
(seed, config).
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .associated import (
    change_of_variable_check,
    jacobi_assoc,
    long_division_checks,
    sheffer_assoc,
    splitting_check,
    ultra_assoc,
    wilson_assoc,
)
from .binomial import (
    asym_compare,
    falling_factorial_instance,
    geometric_instance,
    lagrange_forms,
    lowering_check,
)
from .checks import Check, conjugation_check, flag_check, series_check, value_check
from .families import (
    FAMILY_MARGIN,
    HahnParams,
    JacobiParams,
    ShefferParams,
    WilsonParams,
    comment_generator_bands,
    deformed_op,
    hahn_family,
    hahn_moment_route,
    jacobi_diffeq_op,
    jacobi_family,
    multiterm_family,
    riccati_core,
    sheffer_family,
    ultraspherical_closed_form,
    ultraspherical_family,
    wilson_family,
)
from .indexfn import IndexRatio, Poly, affine
from .opalg import OpMatrix, mgf_from_gop
from .orthocore import (
    ClosedFormRecurrence,
    assoc_one_identity_check,
    cd_kernel_identity_check,
    determinant_identity_check,
    dual_identity_check,
    dual_recurrence,
    fn_family,
    gram_matrix,
    moments_from_recurrence,
    numerator_functional_check,
    polys_from_recurrence,
    recurrence_from_moments,
)
from .sampling import (
    rng_for,
    sample_fraction,
    sample_jacobi,
    sample_multiterm,
    sample_recurrence,
    sample_sheffer,
    sample_unit_series_coeffs,
    sample_wilson,
)
from .series import TruncSeries, exp_series


@dataclass
class RunConfig:
    order: int = 16
    seed: int = 0
    samples: int = 5
    digits: int = 60

    def validate(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


def _prefixed(prefix: str, checks) -> list:
    return [Check(f"{prefix}: {c.name}", c.passed, c.witness) for c in checks]


def _commutator_check(name: str, gop: OpMatrix) -> Check:
    """[gop D gop^(-1), gop x gop^(-1)] == 1, that is gop^(-1) 1 gop == D x - x D,
    compared crossed."""
    nw = gop.nw
    x, d = OpMatrix.x_op(nw), OpMatrix.d_op(nw)
    return conjugation_check(f"{name}: raising/lowering commutator", gop, OpMatrix.identity(nw), d @ x - x @ d)


# -- family suites ------------------------------------------------------------------


def suite_base(cfg: RunConfig) -> list:
    rng = rng_for(cfg.seed)
    order = min(cfg.order, 12)
    out = []
    tuples = [ShefferParams(0, 0, Fraction(1, 2))]
    tuples += [sample_sheffer(rng, order + 6) for _ in range(cfg.samples)]
    for i, p in enumerate(tuples):
        tag = f"base[{i}] lam={p.lam},a={p.a},b={p.b}"
        fam = sheffer_family(p, order)
        out += _prefixed(tag, fam.checks)
        out.append(_commutator_check(tag, fam.gop))
    return out


def suite_ultra(cfg: RunConfig) -> list:
    rng = rng_for(cfg.seed)
    order = min(cfg.order, 12)
    out = []
    fam = ultraspherical_family(ShefferParams(1, 0, 1), order)
    out += _prefixed("ultra[catalan]", fam.checks)
    cats = [1]
    for m in range(6):
        cats.append(sum(cats[i] * cats[m - i] for i in range(m + 1)))
    moments = fam.mgf.laplace()
    ok = all(
        moments.coeffs[2 * n] == cats[n] and (2 * n + 1 > moments.order or moments.coeffs[2 * n + 1] == 0)
        for n in range(min(6, moments.order // 2) + 1)
    )
    out.append(flag_check("ultra[catalan]: even moments are Catalan numbers", ok))
    for i in range(cfg.samples):
        p = sample_sheffer(rng, order + 6, nonzero_lam=True)
        tag = f"ultra[{i}] lam={p.lam},a={p.a},b={p.b}"
        fam = ultraspherical_family(p, order)
        out += _prefixed(tag, fam.checks)
        base = deformed_op(riccati_core(p.lam, 0, p.b, order + FAMILY_MARGIN), p.ratio, 0)  # the family at a = 0
        shifted = exp_series(p.a, order) * mgf_from_gop(base).truncate(order)
        out.append(series_check(f"{tag}: exponential factor law", fam.mgf, shifted))
    return out


def _non_integer_s(rng) -> Fraction:
    """A sampled s off the integers, where the Hahn deformation is regular."""
    while True:
        s = sample_fraction(rng)
        if s.denominator > 1:
            return s


def suite_hahn(cfg: RunConfig) -> list:
    rng = rng_for(cfg.seed)
    order = min(cfg.order, 14)
    out = []
    for i in range(3):
        s = _non_integer_s(rng)
        tag = f"hahn[s={s}]"
        fam = hahn_family(HahnParams(2, Fraction(1, 2), s), order)
        out += _prefixed(tag, fam.checks)
    # integer s=2 runs through the closed-form mgf path only
    f0, rec = hahn_moment_route(2, order)
    mu = f0.laplace()
    out.append(value_check("hahn[s=2]: first moment", mu.coeffs[1], Fraction(1, 2)))
    out.append(
        value_check(
            "hahn[s=2]: variance equals b_1 = 1/4",
            mu.coeffs[2] - mu.coeffs[1] ** 2,
            rec.b[0],
        )
    )
    out.append(value_check("hahn[s=2]: b_1", rec.b[0], Fraction(1, 4)))
    for i in range(max(0, cfg.samples - 3)):
        p = sample_sheffer(rng, order + 6, nonzero_lam=True)
        s = _non_integer_s(rng)
        tag = f"hahn[{i} lam={p.lam},a={p.a},s={s}]"
        fam = hahn_family(HahnParams(p.lam, p.a, s), order)
        out += _prefixed(tag, fam.checks)
    return out


def suite_jacobi(cfg: RunConfig) -> list:
    rng = rng_for(cfg.seed)
    order = min(cfg.order, 14)
    out = []
    legendre = JacobiParams(2, Fraction(1, 2), 1)
    fam = jacobi_family(legendre, order)
    out += _prefixed("jacobi[shifted-legendre]", fam.checks)
    moments = fam.mgf.laplace()
    ok = all(moments.coeffs[n] == Fraction(1, n + 1) for n in range(order + 1))
    out.append(flag_check("jacobi[shifted-legendre]: uniform moments 1/(n+1)", ok))
    expected = (exp_series(1, order + 1) - 1).shift_down(1)
    out.append(series_check("jacobi[shifted-legendre]: mgf closed form", fam.mgf, expected, order))
    _, _, dchecks = jacobi_diffeq_op(legendre, min(cfg.order, 12))
    out += _prefixed("jacobi[shifted-legendre] diffeq", dchecks)
    for i in range(cfg.samples):
        p = sample_jacobi(rng, order + 6)
        tag = f"jacobi[{i}] lam={p.lam},a={p.a},r={p.r}"
        fam = jacobi_family(p, order)
        out += _prefixed(tag, fam.checks)
        _, _, dchecks = jacobi_diffeq_op(p, min(cfg.order, 10))
        out += _prefixed(f"{tag} diffeq", dchecks)
    for name, band, ok in comment_generator_bands(JacobiParams(2, Fraction(1, 3), Fraction(2, 5)), 8):
        out.append(flag_check(f"jacobi generator band: {name}", ok, f"band {band}"))
    return out


def suite_wilson(cfg: RunConfig) -> list:
    rng = rng_for(cfg.seed)
    order = min(cfg.order, 14)
    out = []
    fixed = [
        sample_wilson(rng, order + 6, h=0),
        sample_wilson(rng, order + 6, h=1),
    ]
    generics = [sample_wilson(rng, order + 6) for _ in range(max(1, cfg.samples - 2))]
    for i, p in enumerate(fixed + generics):
        tag = f"wilson[{i}] lam={p.lam},a={p.a},r={p.r},rt={p.rt},h={p.h}"
        fam = wilson_family(p, order)
        out += _prefixed(tag, fam.checks)
    return out


def suite_multiterm(cfg: RunConfig) -> list:
    rng = rng_for(cfg.seed)
    order = min(cfg.order, 12)
    out = []
    for n in (3, 4):
        for extended in (False, True):
            for i in range(3):
                p = sample_multiterm(rng, n, order + 4, extended=extended)
                tag = f"multiterm[n={n},ext={extended},{i}]"
                fam = multiterm_family(p, order)
                out += _prefixed(tag, fam.checks)
    return out


# -- structural suites -----------------------------------------------------------------


def suite_longdiv(cfg: RunConfig) -> list:
    rng = rng_for(cfg.seed)
    order = min(cfg.order, 9)
    out = []
    made = 0
    while made < cfg.samples:
        c0 = sample_fraction(rng, nonzero=True)
        c1 = sample_fraction(rng)
        if any(c0 + c1 * n == 0 for n in range(order + 8)):
            continue
        b = TruncSeries(sample_unit_series_coeffs(rng, order + 6))
        tag = f"longdiv[{made}] ratio={c0}+{c1}n"
        checks = long_division_checks(affine(c0, c1), b, order)
        out += _prefixed(tag, checks)
        made += 1
    out.append(change_of_variable_check(exp_series(1, order + 6) - 1, order))
    f = TruncSeries([Fraction(0), Fraction(1)] + sample_unit_series_coeffs(rng, order + 4)[1:])
    out.append(change_of_variable_check(f, order))
    return out


def suite_assoc(cfg: RunConfig) -> list:
    order = min(cfg.order, 10)
    out = []
    # integer shifts, where the tail pipeline applies
    for c in (1, 2, 3):
        r = sheffer_assoc(ShefferParams(1, 1, 1), c, order)
        out += _prefixed(f"assoc sheffer c={c}", r.checks)
        r = ultra_assoc(ShefferParams(Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)), c, order)
        out += _prefixed(f"assoc ultra c={c}", r.checks)
        r = jacobi_assoc(JacobiParams(2, Fraction(1, 2), 1), c, order)
        out += _prefixed(f"assoc jacobi c={c}", r.checks)
    # rational shifts
    for c in (Fraction(1, 2), Fraction(-1, 3)):
        r = sheffer_assoc(ShefferParams(1, 0, 1), c, order)
        out += _prefixed(f"assoc sheffer c={c}", r.checks)
        r = ultra_assoc(ShefferParams(Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)), c, order)
        out += _prefixed(f"assoc ultra c={c}", r.checks)
        split = splitting_check(JacobiParams(2, Fraction(1, 2), Fraction(1, 2)), c, min(order, 8))
        out += _prefixed(f"assoc split c={c}", split)
    # additivity of the shift at the closed-form level
    base = ultraspherical_closed_form(ShefferParams(Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)))
    two_steps = base.assoc(Fraction(1, 2)).assoc(Fraction(1, 3))
    one_step = base.assoc(Fraction(5, 6))
    out.append(flag_check("assoc additivity (closed form)", two_steps.equals(one_step)))
    p = WilsonParams(2, Fraction(1, 3), Fraction(1, 2), Fraction(1, 5), Fraction(1, 4))
    r = wilson_assoc(p, Fraction(3, 2), order)
    out += _prefixed("assoc wilson c=3/2", r.checks)
    r = wilson_assoc(p, 0, order)
    out += _prefixed("assoc wilson c=0", r.checks)
    r = wilson_assoc(WilsonParams(p.lam, p.a, p.r, p.rt, 0), Fraction(3, 2), order)
    out += _prefixed("assoc wilson h=0", r.checks)
    return out


def suite_orthocore(cfg: RunConfig) -> list:
    rng = rng_for(cfg.seed)
    order = min(cfg.order, 16)
    depth = order // 2 + 2
    out = []
    for i in range(10):
        rec = sample_recurrence(rng, depth + 4)
        tag = f"orthocore[{i}]"
        fam = polys_from_recurrence(rec, depth + 4)
        gf = moments_from_recurrence(rec, order).moment_gf
        d, ok = recurrence_from_moments(gf).agrees_to(rec, order // 2 - 1)
        out.append(flag_check(f"{tag}: moment round trip to depth {d}", ok))
        upto = min(6, order // 2 - 1)
        g = gram_matrix(fam, gf.borel(), upto)
        ok = all(
            g[i2][j] == (fam.norms[i2] if i2 == j else 0)
            for i2 in range(upto + 1)
            for j in range(upto + 1)
        )
        out.append(flag_check(f"{tag}: diagonal gram with norms n! B_n", ok))
        out.append(cd_kernel_identity_check(fam, upto, f"{tag}: kernel identity"))
        out.append(numerator_functional_check(fam, gf.borel(), upto, f"{tag}: numerator functional"))
        out.append(determinant_identity_check(fam, upto, f"{tag}: determinant identity"))
        fns = fn_family(fam, gf.borel(), min(4, upto))
        out.append(
            flag_check(
                f"{tag}: dual series leading terms",
                all(fns[n].coeffs[n] == 1 for n in range(len(fns))),
            )
        )
        if i < 3:
            name = f"{tag}: moment-operator route to the first associated family"
            out.append(assoc_one_identity_check(rec, min(8, depth), name))
    return out


def suite_duality(cfg: RunConfig) -> list:
    rng = rng_for(cfg.seed)
    out = []
    for i in range(cfg.samples):
        a_fn = IndexRatio(Poly([sample_fraction(rng), sample_fraction(rng)]))
        b_fn = IndexRatio(Poly([sample_fraction(rng), sample_fraction(rng, nonzero=True)]))
        cf = ClosedFormRecurrence(a_fn, b_fn)
        out.append(flag_check(f"duality[{i}]: involution", dual_recurrence(dual_recurrence(cf)).equals(cf)))
    cheb = ClosedFormRecurrence(IndexRatio.const(0), affine(0, 1).reciprocal())
    out.append(flag_check("duality: self-dual 1/theta family", dual_recurrence(cheb).equals(cheb)))
    for name, cf in (
        ("1/theta family", cheb),
        ("constant-b family", ClosedFormRecurrence(IndexRatio.const(0), IndexRatio.const(1))),
    ):
        out.append(dual_identity_check(cf, f"duality: negative-index tail identity ({name})"))
    return out


def _order_check(name: str, report: dict, order: int) -> Check:
    """The asym report's order estimate within 0.3 of `order`; with no
    estimate (every residual rounds to 0 at the working digits) it fails."""
    if report["order_estimate"] is None:
        return flag_check(name, False, f"no order estimate: the residuals round to 0 at {report['digits']} digits")
    est = Decimal(report["order_estimate"])
    return flag_check(name, abs(est - order) < Decimal("0.3"), f"estimate {est}")


def suite_binomial(cfg: RunConfig) -> list:
    out = []
    em1 = exp_series(1, 14) - 1
    geo = TruncSeries.from_function(lambda i: 0 if i == 0 else 1, 14)
    for name, f in (("exp base", em1), ("geometric base", geo)):
        ok = all(c.passed for c in lagrange_forms(f, 10, 12))
        out.append(flag_check(f"binomial: inversion forms n<=10 ({name})", ok))
    for s in (Fraction(1, 2), Fraction(5, 3), Fraction(-2, 5)):
        out += _prefixed("binomial", lowering_check(em1, s, 8))
    ff = falling_factorial_instance()
    r1 = asym_compare(ff, Fraction(1, 2), [40, 80], 1, digits=cfg.digits)
    out.append(_order_check("binomial asym: falling-factorial level 1 order -1", r1, -1))
    # the s^(-2) coefficient vanishes identically for this base (the 4th
    # derivative of alpha(1-alpha) is zero), so level 2 gains an extra order
    r2 = asym_compare(ff, Fraction(1, 2), [40, 80], 2, digits=cfg.digits)
    out.append(_order_check("binomial asym: falling-factorial level 2 order -3 (vanishing s^-2 term)", r2, -3))
    ge = geometric_instance()
    for level in (1, 2):
        r = asym_compare(ge, Fraction(1, 5), [40, 80], level, digits=cfg.digits)
        out.append(_order_check(f"binomial asym: geometric level {level} order {-level}", r, -level))
    return out


SUITES = {
    "base": suite_base,
    "ultra": suite_ultra,
    "hahn": suite_hahn,
    "jacobi": suite_jacobi,
    "wilson": suite_wilson,
    "assoc": suite_assoc,
    "longdiv": suite_longdiv,
    "binomial": suite_binomial,
    "duality": suite_duality,
    "multiterm": suite_multiterm,
    "orthocore": suite_orthocore,
}


def run_suite(name: str, cfg: RunConfig) -> list:
    if name == "all":
        return [c for key, fn in SUITES.items() for c in _prefixed(key, fn(cfg))]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](cfg)
