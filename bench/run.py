#!/usr/bin/env python3
"""Benchmark of the umbral command line, end to end and per layer.

    python3 bench/run.py --workload deep-build --seed 1 --seconds 30 --trace 0

Workloads: deep-build, verify-sweep, moments-roundtrip (see NOTES.md).  A job
is one in-process call of ``umbral.cli.main(argv)`` (a verify sweep: one per
suite) with stdout and stderr captured, in this single-threaded process;
umbral is imported from ``src/`` of the checkout this file sits in.  Every
job's output is checked against golden.json and, for cfrac jobs, against
independently computed values.

--trace 0 sets up several times, then runs whole rounds of jobs until
--seconds have passed, and reports the end-to-end metrics.  Their times are
in seconds at reference speed: each set-up and cli.main call is scaled by
REF_CAL_S over the time a fixed piece of Fraction arithmetic took right
before and after it (see `Clock`), which cancels most of the drift of a
shared machine's CPU speed.  --trace 1 runs the seed's first round
untraced, then again with every layer wrapped in spans, and reports the
per-layer metrics and the tracing overhead; it writes the spans to
.bench_work/.  The last line of stdout is the JSON result.  Exits 2 without
a result when umbral cannot be imported from src/.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import jobs as jobs_mod
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 5          # setup_s is the median of this many set-ups
MAX_ROUNDS = 60     # cap on rounds a timed section can run
# The speed reference: moments of one fixed depth-32 recurrence, computed by
# the benchmark's own oracle (pure-Python Fraction arithmetic on integers of
# hundreds of bits, like umbral's, but no umbral code).  REF_CAL_S is its
# typical time on the 2-core container the benchmark was written on.
CAL_RECURRENCE = jobs_mod.cfrac_recurrence(32, 0)
CAL_ORDER = 64
REF_CAL_S = 0.025

# (name, unit) of every per-layer metric BENCHMARK.json declares, in report order.
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


class SetupError(Exception):
    pass


def import_umbral() -> dict:
    """Import umbral afresh from the checkout's src/; short name -> module."""
    if not (SRC / "umbral" / "cli.py").is_file():
        raise SetupError(f"no umbral package under {SRC}")
    # jobs always pass --order; an exported UMBRAL_ORDER must not reach the
    # argument defaults, which are read outside cli.main's error handling
    os.environ.pop("UMBRAL_ORDER", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "umbral" or n.startswith("umbral.")]:
        del sys.modules[name]
    cli = importlib.import_module("umbral.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "umbral").resolve():
        raise SetupError(f"umbral imported from {cli.__file__}, not from {SRC}")
    return {
        name.split(".", 1)[1] if "." in name else name: mod
        for name, mod in sys.modules.items()
        if name == "umbral" or name.startswith("umbral.")
    }


def git_commit():
    """The checkout's commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_header(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "fraction": f"{Fraction.__module__}.Fraction, "
        + ("pure Python" if hasattr(Fraction.__add__, "__code__") else "native"),
    }


class Runner:
    """Runs jobs through umbral.cli.main and tallies their checks."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.modules = {}
        self.attempted = 0
        self.failures = []

    def run(self, job, clock=None):
        """(output of each call, seconds, problem or None); a problem is
        tallied.  With a `Clock`, each call's time is scaled to reference
        speed."""
        outputs, seconds, rc = [], 0.0, 0
        err = io.StringIO()
        main = self.modules["cli"].main
        for argv in job.calls:
            out = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(list(argv))
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            spent = perf_counter() - t0
            seconds += clock.scale(spent) if clock else spent
            outputs.append(out.getvalue())
            if rc != 0:
                break
        outputs = tuple(outputs)
        self.attempted += 1
        problem = "uncaught exception" if rc is None else jobs_mod.check(job, rc, outputs, self.golden)
        if problem:
            self.failures.append(f"{job.key}: {problem} {err.getvalue().strip()[-300:]}")
        return outputs, seconds, problem


def calibrate() -> float:
    """Seconds the speed reference takes now: the faster of two runs, so that
    an interruption of one run does not count as a slow machine.  The
    collector is off meanwhile, so objects the program keeps alive do not
    slow the reference."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            jobs_mod.moments(*CAL_RECURRENCE, CAL_ORDER)
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Scales measured times to reference speed.

    The CPU speed a process gets from a shared host drifts by tens of percent
    over seconds to minutes, and the speed reference drifts with it.  Each
    measured piece of work is bracketed by a run of the reference, and its
    time is scaled by REF_CAL_S over the mean of the two reference times.
    A change to umbral moves the scaled times; a change of machine speed
    mostly does not.
    """

    def __init__(self):
        self.last = calibrate()
        self.samples = [self.last]
        self.measured = 0.0   # seconds passed to scale(), unscaled
        self.scaled = 0.0     # the same at reference speed

    def scale(self, seconds: float) -> float:
        """`seconds`, just measured, at reference speed."""
        after = calibrate()
        self.samples.append(after)
        factor = REF_CAL_S / ((self.last + after) / 2)
        self.last = after
        self.measured += seconds
        self.scaled += seconds * factor
        return seconds * factor


def setup(runner: Runner, workload: str, seed: int):
    """Import umbral afresh, draw the seed's rounds (writing their input
    files) and run one warm-up job.  Returns (rounds, seconds)."""
    t0 = perf_counter()
    runner.modules = import_umbral()
    WORK.mkdir(exist_ok=True)
    rounds = jobs_mod.rounds(workload, seed, MAX_ROUNDS, WORK)
    runner.run(jobs_mod.warmup_job(workload, WORK))
    return rounds, perf_counter() - t0


def tail(times: list):
    """(percentile, job time, jobs beyond) for the highest listed percentile
    with at least ten jobs beyond it, or None."""
    ordered = sorted(times)
    for pct in (99, 95, 90, 80, 75):
        i = max(0, -(-len(ordered) * pct // 100) - 1)
        if len(ordered) - 1 - i >= 10:
            return pct, ordered[i], len(ordered) - 1 - i
    return None


def measure(runner: Runner, workload: str, seed: int, seconds: int, say) -> dict:
    clock = Clock()
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        gc.collect()
        rounds, spent = setup(runner, workload, seed)
        raw_setups.append(spent)
        setups.append(clock.scale(spent))
    gc.collect()
    times = []
    done = 0
    t0 = perf_counter()
    elapsed = 0.0
    # stop at the first round boundary after `seconds`: a verify sweep takes
    # about 20 s, and stopping at the nearest boundary would run one sweep or
    # two depending on the machine's speed
    while done < len(rounds) and elapsed < seconds:
        times += [runner.run(job, clock)[1] for job in rounds[done]]
        done += 1
        elapsed = perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    say(f"timed section: {done} rounds, {len(times)} jobs, {elapsed:.3f} s with speed references")
    say(f"speed reference: median {statistics.median(clock.samples):.4f} s, "
        f"range {min(clock.samples):.4f}-{max(clock.samples):.4f} s over {len(clock.samples)} runs; "
        f"times below are scaled to {REF_CAL_S} s")
    say(f"wall clock, unscaled: setup_s {statistics.median(raw_setups):.4f} s; set-ups and jobs "
        f"took {clock.measured:.3f} s, {clock.scaled:.3f} s at reference speed")
    say(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    t = tail(times)
    if t is None:
        say(f"job_s_tail omitted: {len(times)} jobs, fewer than ten beyond p75")
    else:
        say(f"job_s_tail {t[1]:.6f} s  (p{t[0]}, {t[2]} of {len(times)} jobs beyond)")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_values(tracer: Tracer, round_jobs: list, outputs: list, say) -> dict:
    """Every per-layer value of a traced round, by metric name; prints the
    ratio bases and each layer's share of self time."""
    summary = tracer.summary()
    per = summary["per_name"]

    def calls(name):
        return per.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return per.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return per.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    verify_checks = sum(
        jobs_mod.record_value(job, outs) for job, outs in zip(round_jobs, outputs) if job.kind == "verify"
    )
    inv_calls, core_calls = calls("opalg.inverse"), calls("families.sheffer_core")
    products = tracer.products
    values = {
        "series.mul.calls": calls("series.mul"), "series.mul.self_s": self_s("series.mul"),
        "series.div.calls": calls("series.div"), "series.div.self_s": self_s("series.div"),
        "series.reverse.self_s": self_s("series.reverse"),
        "series.pow_fraction.self_s": self_s("series.pow_fraction"),
        "series.compose.self_s": self_s("series.compose"),
        "series.riccati.self_s": self_s("series.riccati"),
        "series.max_bits": tracer.bits["series"],
        "opalg.matmul.calls": calls("opalg.matmul"), "opalg.matmul.self_s": self_s("opalg.matmul"),
        "opalg.matmul.products": products,
        "opalg.matmul.ns_per_product": ratio(self_s("opalg.matmul") * 1e9, products),
        "opalg.inverse.calls": inv_calls, "opalg.inverse.self_s": self_s("opalg.inverse"),
        "opalg.inverse.repeat_ratio": ratio(tracer.repeats["opalg.inverse"], inv_calls),
        "opalg.umbral_compose.self_s": self_s("opalg.umbral_compose"),
        "opalg.series_of_d.self_s": self_s("opalg.series_of_d"),
        "opalg.bar.self_s": self_s("opalg.bar"),
        "opalg.three_term.self_s": self_s("opalg.three_term"),
        "opalg.max_bits": tracer.bits["opalg"],
        "orthocore.moments_from_recurrence.calls": calls("orthocore.moments_from_recurrence"),
        "orthocore.moments_from_recurrence.self_s": self_s("orthocore.moments_from_recurrence"),
        "orthocore.recurrence_from_moments.calls": calls("orthocore.recurrence_from_moments"),
        "orthocore.recurrence_from_moments.self_s": self_s("orthocore.recurrence_from_moments"),
        "orthocore.polys_from_recurrence.self_s": self_s("orthocore.polys_from_recurrence"),
        "orthocore.cf_tails.self_s": self_s("orthocore.cf_tails"),
        "orthocore.max_bits": tracer.bits["orthocore"],
        "families.sheffer_core.calls": core_calls,
        "families.sheffer_core.repeat_ratio": ratio(tracer.repeats["families.sheffer_core"], core_calls),
        "families.sheffer_core.s": incl("families.sheffer_core"),
        "families.build_s": summary["build_s"],
        "families.check_s": summary["check_s"],
        "families.check_share": ratio(summary["check_s"], summary["build_s"]),
        "associated.assoc_s": summary["assoc_s"],
        "associated.base_rebuilds": summary["base_rebuilds"],
        "associated.long_division_checks.s": incl("associated.long_division_checks"),
        "binomial.lagrange_forms.self_s": self_s("binomial.lagrange_forms"),
        "binomial.asym_compare.self_s": self_s("binomial.asym_compare"),
        "verify.checks": verify_checks,
        "cli.emit.self_s": self_s("cli.emit"),
        "cli.input_bytes": sum(jobs_mod.input_bytes(job) for job in round_jobs),
        "cli.output_bytes": sum(len(o.encode()) for outs in outputs for o in outs),
    }
    for suite in jobs_mod.VERIFY_SUITES:
        values[f"verify.suite.{suite}.s"] = incl(f"verify.suite_{suite}")
    for layer, spent in summary["layer_self"].items():
        values[f"{layer}.self_s"] = spent
    bases = {
        "opalg.inverse.repeat_ratio": f"{tracer.repeats['opalg.inverse']}/{inv_calls} calls",
        "families.sheffer_core.repeat_ratio": f"{tracer.repeats['families.sheffer_core']}/{core_calls} calls",
        "families.check_share": f"{summary['check_s']:.4f}/{summary['build_s']:.4f} s",
        "opalg.matmul.ns_per_product": f"{self_s('opalg.matmul'):.4f} s/{products} products",
    }
    for name, base in bases.items():
        say(f"{name} {values[name]:.6g}  (base {base})")
    umbral_self = sum(summary["layer_self"].values())
    for layer in LAYERS:
        spent = summary["layer_self"][layer]
        say(f"layer {layer:<10} self {spent:9.4f} s  ({ratio(spent, umbral_self):6.1%} of {umbral_self:.4f} s)")
    return values


def traced(runner: Runner, workload: str, seed: int, header: dict, say) -> dict:
    rounds, _ = setup(runner, workload, seed)
    round_jobs = rounds[0]
    gc.collect()
    t0 = perf_counter()
    plain = [runner.run(job)[0] for job in round_jobs]
    untraced_s = perf_counter() - t0

    tracer = Tracer()
    tracer.install(runner.modules)
    gc.collect()
    try:
        t0 = perf_counter()
        results = [runner.run(job) for job in round_jobs]
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    outputs = [outs for outs, _, _ in results]
    for job, before, (after, _, problem) in zip(round_jobs, plain, results):
        if problem is None and after != before:
            runner.failures.append(f"{job.key}: traced output differs from the untraced one")
    overhead = traced_s - untraced_s
    say(
        f"trace overhead: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s = {overhead:.3f} s "
        f"({overhead / untraced_s:+.1%} of untraced), {len(round_jobs)} jobs, {len(tracer.spans)} spans"
    )
    say("self time inside fractions (no spans) is charged to the umbral span that called it")

    values = layer_values(tracer, round_jobs, outputs, say)

    path = WORK / f"trace-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"header": header, "untraced_s": untraced_s, "traced_s": traced_s,
                             "jobs": [job.key for job in round_jobs]}) + "\n")
        tracer.dump_spans(fh)
    say(f"spans written to {path.relative_to(ROOT)}")
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def say(line):
        print(line, flush=True)

    header = run_header(args.workload, args.seed, args.seconds, bool(args.trace))
    say("header " + json.dumps(header))
    try:
        runner = Runner(jobs_mod.load_golden())
        if args.trace:
            metrics = traced(runner, args.workload, args.seed, header, say)
        else:
            metrics = measure(runner, args.workload, args.seed, args.seconds, say)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        say(f"metric {name} {value:.6g} {unit}")
    for line in runner.failures[:20]:
        say(f"FAIL {line}")
    say(f"fail_ratio {len(runner.failures)}/{runner.attempted} jobs")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
