"""Command-line surface: family tables, verification suites, continued
fraction conversions, associated families, and the asymptotic comparison.

All output is deterministic for a fixed (seed, config): JSON is emitted with
sorted keys, and nothing time- or path-dependent is written.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys

from .associated import jacobi_assoc, sheffer_assoc, ultra_assoc, wilson_assoc
from .binomial import INSTANCES, asym_compare
from .errors import DegenerateB, EngineError, SingularParams
from .families import (
    hahn_family,
    hahn_moment_route,
    jacobi_family,
    multiterm_family,
    sheffer_family,
    ultraspherical_family,
    wilson_family,
)
from .orthocore import Recurrence, moments_from_recurrence, recurrence_from_moments
from .series import TruncSeries, as_rat
from .verify import SUITES, RunConfig, run_suite

USAGE_ERROR = 2
IDENTITY_ERROR = 1

# name -> builder; each builder's first argument is annotated with the
# parameter record that declares its --params keys and defaults
FAMILIES = {
    "sheffer": sheffer_family,
    "ultraspherical": ultraspherical_family,
    "hahn": hahn_family,
    "jacobi": jacobi_family,
    "wilson": wilson_family,
    "multiterm": multiterm_family,
}
ASSOCS = {
    "sheffer": sheffer_assoc,
    "ultraspherical": ultra_assoc,
    "jacobi": jacobi_assoc,
    "wilson": wilson_assoc,
}
# options whose value is a rational and may start with '-'
RATIONAL_FLAGS = ("--c", "--alpha")
# the largest working order: above every golden row and benchmark job (cfrac
# at --order 96); cost grows about 14x from order 16 to 64
MAX_ORDER = 256


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
        key = key.strip()
        if key in out:
            raise ValueError(f"parameter {key!r} given twice")
        out[key] = as_rat(value.strip())
    return out


def params_for(builder, params: dict):
    """The parameter record `builder` takes (the annotation of its first
    argument), built from parsed --params."""
    first = next(iter(inspect.signature(builder, eval_str=True).parameters.values()))
    return first.annotation.from_params(params)


def resolve_order(args) -> int:
    if args.order < 4:
        raise ValueError("order must be at least 4")
    if args.order > MAX_ORDER:
        raise ValueError(f"order must be at most {MAX_ORDER}")
    return args.order


def emit(payload, args, csv_rows):
    """Write `payload` as JSON, or under --format csv the rows that
    `csv_rows()` builds, so that no command builds them for JSON output."""
    if args.format == "csv":
        text = "\n".join(",".join(str(v) for v in row) for row in csv_rows()) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_family(args) -> int:
    order = resolve_order(args)
    params = parse_params(args.params)
    build = FAMILIES[args.name]
    p = params_for(build, params)
    try:
        fam = build(p, order)
    except SingularParams:
        if not (args.name == "hahn" and p.closed_mgf):
            raise
        f0, rec = hahn_moment_route(p.s, order)
        payload = {
            "name": "hahn",
            "path": "closed-form mgf (integer s)",
            "s": str(p.s),
            "f0": f0.to_json(),
            "recurrence": rec.to_json(),
        }
        emit(payload, args, lambda: [["f0"] + payload["f0"]["coeffs"]])
        return 0
    payload = fam.to_json(order)
    payload["params"] = {k: str(v) for k, v in sorted(params.items())}
    fields = {**payload["recurrence"], "f0": payload["f0"]["coeffs"], "norms": payload["norms"]}
    emit(payload, args, lambda: [[k] + v for k, v in fields.items()])
    return 0 if all(c.passed for c in fam.checks) else IDENTITY_ERROR


def cmd_verify(args) -> int:
    cfg = RunConfig(resolve_order(args), args.seed, args.samples, args.digits)
    cfg.validate()
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
    emit(payload, args, lambda: [[c.name, "pass" if c.passed else "FAIL", c.witness] for c in checks])
    return 0 if not failed else IDENTITY_ERROR


def cmd_cfrac(args) -> int:
    order = resolve_order(args)
    with open(args.input) as fh:
        data = json.load(fh)
    payload = {"direction": args.direction}
    if args.direction == "moments2rec":
        gf = TruncSeries.from_json(data)
        if gf.order < 1:
            raise ValueError("moments2rec needs at least 2 moments: one moment determines no recurrence coefficient")
        rec = recurrence_from_moments(gf)
        payload["recurrence"] = rec.to_json()
        payload["depth"] = rec.depth
        fields = payload["recurrence"]  # the CSV rows a and b
        if args.round_trip:
            if rec.depth < 1:
                raise ValueError(f"a round trip needs at least 4 moments, got {gf.order + 1}")
            # a_0..a_d and b_1..b_d fix mu_0..mu_(2d+1), every moment they were
            # read from; moments_from_recurrence reaches order 2d+1 only from
            # depth d + 1, though it reads no coefficient past those, so the
            # recurrence goes in with one more level that nothing reads
            padded = Recurrence(rec.a + (0,), rec.b + (0,))
            back = moments_from_recurrence(padded, min(order, 2 * rec.depth + 1)).moment_gf
            payload["round_trip"] = back.agrees_with(gf)
    else:
        rec = Recurrence.from_json(data)
        gf = moments_from_recurrence(rec, order).moment_gf
        payload["moment_gf"] = gf.to_json()
        fields = {"moments": payload["moment_gf"]["coeffs"]}
        if args.round_trip:
            back = recurrence_from_moments(gf)
            d = min(len(back.a) - 1, len(back.b), rec.depth)
            payload["round_trip"] = back.a[: d + 1] == rec.a[: d + 1] and back.b[:d] == rec.b[:d]
    emit(payload, args, lambda: [[k] + v for k, v in fields.items()])
    return 0 if payload.get("round_trip", True) else IDENTITY_ERROR


def cmd_assoc(args) -> int:
    order = resolve_order(args)
    build = ASSOCS[args.name]
    p = params_for(build, parse_params(args.params))
    c = as_rat(args.c)
    res = build(p, c, order)
    payload = res.to_json(order)
    pipelines = {route: series.to_json() for route, series in res.pipelines.items()}
    payload["pipelines"] = {"explicit": res.mgf.to_json(), **pipelines}
    if c == 0:
        payload["reduction"] = "identical to base"
    emit(payload, args, lambda: [["f0(.,c)"] + payload["pipelines"]["explicit"]["coeffs"]])
    return 0 if all(ch.passed for ch in res.checks) else IDENTITY_ERROR


def cmd_asym(args) -> int:
    inst = INSTANCES[args.instance]()
    s_values = [int(v) for v in args.s.split(",") if v]
    report = asym_compare(inst, as_rat(args.alpha), s_values, args.level, digits=args.digits)
    emit(report, args, lambda: [[r["s"], r["exact"], r["approx"], r["residual"]] for r in report["rows"]])
    return 0


# every option a subcommand may take; each subcommand registers the ones it reads
FLAGS = {
    "--order": dict(type=int, default=16),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int, default=5),
    "--params": dict(default=""),
    "--digits": dict(type=int, default=60),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(default=None),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umbral",
        description="exact operator calculus for orthogonal polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, *names):
        for name in names:
            p.add_argument(name, **FLAGS[name])

    p = sub.add_parser("family", help="build one family and emit its data")
    p.add_argument("name", choices=tuple(FAMILIES))
    flags(p, "--order", "--params", "--format", "--out")

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))
    flags(p, "--order", "--seed", "--samples", "--digits", "--format", "--out")

    p = sub.add_parser("cfrac", help="convert between moments and recurrences")
    p.add_argument("direction", choices=("moments2rec", "rec2moments"))
    p.add_argument("input")
    p.add_argument("--round-trip", action="store_true")
    flags(p, "--order", "--format", "--out")

    p = sub.add_parser("assoc", help="build an associated family")
    p.add_argument("name", choices=tuple(ASSOCS))
    p.add_argument("--c", required=True)
    flags(p, "--order", "--params", "--format", "--out")

    p = sub.add_parser("asym", help="compare exact log values with the expansion")
    p.add_argument("instance", choices=tuple(INSTANCES))
    p.add_argument("--alpha", required=True)
    p.add_argument("--s", required=True, help="comma-separated integer indices")
    p.add_argument("--level", type=int, default=2)
    flags(p, "--digits", "--format", "--out")
    return parser


COMMANDS = {"family": cmd_family, "verify": cmd_verify, "cfrac": cmd_cfrac, "assoc": cmd_assoc, "asym": cmd_asym}
_parser = None  # built by the first `main` call and reused: a parser holds no results


def attach_rationals(argv) -> list:
    """`--c -1/3` -> `--c=-1/3`: argparse takes a word that starts with '-'
    for an option unless it is a plain negative number, so a negative
    fraction after a rational option would otherwise be rejected."""
    out = []
    for word in argv:
        if out and out[-1] in RATIONAL_FLAGS and word[:1] == "-" and word[1:2].isdigit():
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = make_parser()
    args = _parser.parse_args(attach_rationals(sys.argv[1:] if argv is None else argv))
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IDENTITY_ERROR if isinstance(exc, DegenerateB) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
