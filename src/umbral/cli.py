"""Command-line surface: family tables, verification suites, continued
fraction conversions, associated families, and the asymptotic comparison.

All output is deterministic for a fixed (seed, config): JSON is emitted with
sorted keys, and nothing time- or path-dependent is written.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .associated import jacobi_assoc, sheffer_assoc, ultra_assoc, wilson_assoc
from .binomial import INSTANCES, asym_compare
from .errors import DegenerateB, EngineError, IdentityFailure, SingularParams
from .families import (
    JacobiParams,
    MultiTermParams,
    ShefferParams,
    WilsonParams,
    hahn_family,
    hahn_mgf,
    jacobi_family,
    multiterm_family,
    sheffer_family,
    ultraspherical_family,
    wilson_family,
)
from .orthocore import (
    Recurrence,
    assoc_mgf_from_tails,
    moments_from_recurrence,
    recurrence_from_moments,
)
from .series import TruncSeries, as_rat
from .verify import SUITES, RunConfig, run_suite

USAGE_ERROR = 2
IDENTITY_ERROR = 1


def parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        if not piece:
            continue
        key, _, value = piece.partition("=")
        if not value:
            raise ValueError(f"malformed parameter {piece!r}")
        out[key.strip()] = as_rat(value.strip())
    return out


def default_order() -> int:
    env = os.environ.get("UMBRAL_ORDER")
    if not env:
        return 16
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"UMBRAL_ORDER must be an integer, got {env!r}") from None


def build_config(args) -> RunConfig:
    cfg = RunConfig(
        order=default_order() if args.order is None else args.order,
        seed=args.seed,
        samples=args.samples,
        fmt=args.format,
        digits=args.digits,
        params=parse_params(getattr(args, "params", "") or ""),
    )
    cfg.validate()
    return cfg


def emit(payload, args, csv_rows=None):
    if args.format == "csv" and csv_rows is not None:
        text = "\n".join(",".join(str(v) for v in row) for row in csv_rows) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sheffer_params(params: dict) -> ShefferParams:
    return ShefferParams(params.get("lambda", 0), params.get("a", 0), params.get("b", 0))


def _jacobi_params(params: dict) -> JacobiParams:
    return JacobiParams(params.get("lambda", 0), params.get("a", 0), params.get("r", 0))


def _wilson_params(params: dict) -> WilsonParams:
    rt = params.get("rtilde", params.get("rt", 0))
    return WilsonParams(
        params.get("lambda", 0), params.get("a", 0), params.get("r", 0), rt, params.get("h", 0)
    )


def _multiterm_params(params: dict) -> MultiTermParams:
    n = params.get("n", 2)
    if n != int(n):
        raise ValueError(f"multiterm needs an integer n, got {n}")
    n = int(n)
    weights = []
    for k in range(n + 1):
        key = f"t{k}"
        if key in params:
            weights.append(params[key])
    return MultiTermParams(n, params.get("lambda", 0), params.get("a", 0), tuple(weights))


def cmd_family(args) -> int:
    cfg = build_config(args)
    params = cfg.params
    name = args.name
    if name == "sheffer":
        fam = sheffer_family(_sheffer_params(params), cfg.order, strict=False)
    elif name == "ultraspherical":
        fam = ultraspherical_family(_sheffer_params(params), cfg.order, strict=False)
    elif name == "hahn":
        lam, a = params.get("lambda", 2), params.get("a", Fraction(1, 2))
        s = params.get("s", Fraction(1, 2))
        try:
            fam = hahn_family(lam, a, s, cfg.order, strict=False)
        except SingularParams:
            if not (lam == 2 and a == Fraction(1, 2)):
                raise
            # integer s: only the closed-form mgf path exists
            f0 = hahn_mgf(s, cfg.order)
            rec = recurrence_from_moments(f0.laplace(), depth=max(1, int(s) - 1))
            payload = {
                "name": "hahn",
                "path": "closed-form mgf (integer s)",
                "s": str(s),
                "f0": f0.to_json(),
                "recurrence": rec.to_json(),
            }
            emit(payload, args, csv_rows=[["f0"] + [str(c) for c in f0.coeffs]])
            return 0
    elif name == "jacobi":
        fam = jacobi_family(_jacobi_params(params), cfg.order, strict=False)
    elif name == "wilson":
        fam = wilson_family(_wilson_params(params), cfg.order, strict=False)
    elif name == "multiterm":
        fam = multiterm_family(_multiterm_params(params), cfg.order, strict=False)
    else:
        raise ValueError(f"unknown family {args.name!r}")
    payload = fam.to_json(cfg.order)
    payload["params"] = {k: str(v) for k, v in sorted(params.items())}
    rows = [
        ["a"] + [str(v) for v in fam.recurrence.a],
        ["b"] + [str(v) for v in fam.recurrence.b],
        ["f0"] + [str(c) for c in fam.mgf.coeffs],
        ["norms"] + [str(v) for v in fam.norms],
    ]
    emit(payload, args, csv_rows=rows)
    return 0 if all(c.passed for c in fam.checks) else IDENTITY_ERROR


def cmd_verify(args) -> int:
    cfg = build_config(args)
    checks = run_suite(args.suite, cfg)
    failed = [c for c in checks if not c.passed]
    payload = {
        "suite": args.suite,
        "order": cfg.order,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "total": len(checks),
        "failed": len(failed),
        "checks": [c.to_json() for c in checks],
    }
    rows = [[c.name, "pass" if c.passed else "FAIL", c.witness] for c in checks]
    emit(payload, args, csv_rows=rows)
    return 0 if not failed else IDENTITY_ERROR


def cmd_cfrac(args) -> int:
    cfg = build_config(args)
    with open(args.input) as fh:
        data = json.load(fh)
    payload = {"direction": args.direction}
    if args.direction == "moments2rec":
        gf = TruncSeries.from_json(data)
        rec = recurrence_from_moments(gf)
        payload["recurrence"] = rec.to_json()
        payload["depth"] = rec.depth
        rows = [["a"] + [str(v) for v in rec.a], ["b"] + [str(v) for v in rec.b]]
        if args.round_trip:
            back = moments_from_recurrence(rec, min(cfg.order, 2 * rec.depth - 2)).moment_gf
            agree = back.agrees_with(gf)
            payload["round_trip"] = agree
            if not agree:
                emit(payload, args, csv_rows=rows)
                return IDENTITY_ERROR
    else:
        rec = Recurrence.from_json(data)
        gf = moments_from_recurrence(rec, cfg.order).moment_gf
        payload["moment_gf"] = gf.to_json()
        rows = [["moments"] + [str(c) for c in gf.coeffs]]
        if args.round_trip:
            back = recurrence_from_moments(gf)
            d = min(len(back.a) - 1, len(back.b), rec.depth)
            agree = back.a[: d + 1] == rec.a[: d + 1] and back.b[:d] == rec.b[:d]
            payload["round_trip"] = agree
            if not agree:
                emit(payload, args, csv_rows=rows)
                return IDENTITY_ERROR
    emit(payload, args, csv_rows=rows)
    return 0


def cmd_assoc(args) -> int:
    cfg = build_config(args)
    params = cfg.params
    c = as_rat(args.c)
    name = args.name
    if name == "sheffer":
        res = sheffer_assoc(_sheffer_params(params), c, cfg.order, strict=False)
    elif name == "ultraspherical":
        res = ultra_assoc(_sheffer_params(params), c, cfg.order, strict=False)
    elif name == "jacobi":
        res = jacobi_assoc(_jacobi_params(params), c, cfg.order, strict=False)
    elif name == "wilson":
        res = wilson_assoc(_wilson_params(params), c, cfg.order, strict=False)
    else:
        raise ValueError(f"unknown associated family {args.name!r}")
    payload = res.to_json(cfg.order)
    pipelines = {"explicit": res.mgf.to_json()}
    depth_ok = min(cfg.order, 10)
    pipelines["recurrence"] = (
        moments_from_recurrence(res.recurrence, depth_ok).f0.to_json()
    )
    if c.denominator == 1 and c >= 0 and res.base_recurrence is not None:
        pipelines["tails"] = assoc_mgf_from_tails(res.base_recurrence, int(c), depth_ok).to_json()
    payload["pipelines"] = pipelines
    if c == 0:
        payload["reduction"] = "identical to base"
    rows = [["f0(.,c)"] + [str(v) for v in res.mgf.coeffs]]
    emit(payload, args, csv_rows=rows)
    return 0 if all(ch.passed for ch in res.checks) else IDENTITY_ERROR


def cmd_asym(args) -> int:
    cfg = build_config(args)
    if args.instance not in INSTANCES:
        raise ValueError(f"unknown instance {args.instance!r}")
    inst = INSTANCES[args.instance]()
    s_values = [int(v) for v in args.s.split(",") if v]
    report = asym_compare(inst, as_rat(args.alpha), s_values, args.level, digits=cfg.digits)
    rows = [[r["s"], r["exact"], r["approx"], r["residual"]] for r in report["rows"]]
    emit(report, args, csv_rows=rows)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umbral",
        description="exact operator calculus for orthogonal polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # None: resolved by build_config, inside main's error handling
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=5)
        p.add_argument("--params", default="")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--digits", type=int, default=60)
        p.add_argument("--out", default=None)

    p = sub.add_parser("family", help="build one family and emit its data")
    p.add_argument("name", choices=("sheffer", "ultraspherical", "hahn", "jacobi", "wilson", "multiterm"))
    common(p)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("suite", choices=tuple(SUITES) + ("all", "orthocore"))
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cfrac", help="convert between moments and recurrences")
    p.add_argument("direction", choices=("moments2rec", "rec2moments"))
    p.add_argument("input")
    p.add_argument("--round-trip", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_cfrac)

    p = sub.add_parser("assoc", help="build an associated family")
    p.add_argument("name", choices=("sheffer", "ultraspherical", "jacobi", "wilson"))
    p.add_argument("--c", required=True)
    common(p)
    p.set_defaults(fn=cmd_assoc)

    p = sub.add_parser("asym", help="compare exact log values with the expansion")
    p.add_argument("instance", choices=tuple(INSTANCES))
    p.add_argument("--alpha", required=True)
    p.add_argument("--s", required=True, help="comma-separated integer indices")
    p.add_argument("--level", type=int, default=2)
    common(p)
    p.set_defaults(fn=cmd_asym)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DegenerateB as exc:
        print(f"error: b = 0 at depth {exc.depth}", file=sys.stderr)
        return IDENTITY_ERROR
    except IdentityFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IDENTITY_ERROR
    except SingularParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, KeyError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
