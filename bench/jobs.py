"""Workloads of the umbral benchmark: the jobs each seed draws, the input
files they read, and the check each job's output must pass.

A job is one call of ``umbral.cli.main(argv)``, except that a verify sweep
is one call per suite.  Every workload draws its jobs from a fixed pool
whose outputs were recorded in ``golden.json`` (see ``record.py``); the
benchmark seed chooses which pool entries run and in what order.  This
module does not import umbral.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Each family runs at one fixed order, picked so that its jobs cost about the
# same; a mixed-cost round would put the median job time at the gap between
# two families and make it jump from run to run.
FAMILY_ORDERS = {"sheffer": 36, "jacobi": 28, "wilson": 30, "ultraspherical": 28}
FAMILY_KEYS = {
    "sheffer": ("lambda", "a", "b"),
    "ultraspherical": ("lambda", "a", "b"),
    "jacobi": ("lambda", "a", "r"),
    "wilson": ("lambda", "a", "r", "rtilde", "h"),
}
# Mixing weights stay in (0, 1]: with lambda > 0 that keeps 1 + beta*k and
# the Wilson mixing ratio positive, so every guard clears.
WEIGHT_KEYS = {"r", "rtilde", "h"}
FAMILY_POOL = 16

# A verify-sweep job is one sweep over these suites: the checks of `umbral
# verify all`, run as one `umbral verify <suite>` call per suite.  Single
# suites differ 500-fold in cost, so with one job per suite the median job
# would be one or two ~1 s jobs.  Separate calls let the benchmark scale
# each suite's time to reference speed on its own (see run.Clock), which a
# 15 s `verify all` call does not allow.
VERIFY_SUITES = (
    "base", "ultra", "hahn", "jacobi", "wilson", "assoc",
    "longdiv", "binomial", "duality", "multiterm", "orthocore",
)
VERIFY_ORDER = 12
VERIFY_SEEDS = 8

CFRAC_DEPTHS = (24, 28, 32, 36, 40, 44, 48)
CFRAC_POOL = 4

WORKLOADS = ("deep-build", "verify-sweep", "moments-roundtrip")


@dataclass(frozen=True)
class Job:
    key: str       # names the job in golden.json
    calls: tuple   # arguments of each umbral.cli.main call, run in turn
    kind: str      # "family", "verify" or "cfrac"
    oracle: tuple = ()  # cfrac only: expected output fields, as strings


def positive_fraction(rng: random.Random, weight: bool = False) -> Fraction:
    den = rng.randint(1, 9)
    num = rng.randint(1, den) if weight else rng.randint(1, 9)
    return Fraction(num, den)


def family_params(family: str, k: int) -> str:
    rng = random.Random(f"deep-build:{family}:{k}")
    return ",".join(
        f"{key}={positive_fraction(rng, key in WEIGHT_KEYS)}" for key in FAMILY_KEYS[family]
    )


def family_job(family: str, k: int, order: int = 0) -> Job:
    order = order or FAMILY_ORDERS[family]
    argv = ("family", family, "--params", family_params(family, k), "--order", str(order))
    return Job(f"family/{family}/{order}/{k}", (argv,), "family")


def verify_job(suite: str, vseed: int) -> Job:
    """`umbral verify <suite>`; for suite "all", every suite in turn."""
    suites = VERIFY_SUITES if suite == "all" else (suite,)
    calls = tuple(("verify", s, "--order", str(VERIFY_ORDER), "--seed", str(vseed)) for s in suites)
    return Job(f"verify/{suite}/{vseed}", calls, "verify")


# -- continued-fraction inputs ---------------------------------------------------


def cfrac_recurrence(depth: int, k: int) -> tuple[list, list]:
    """Random positive a_0..a_depth and b_1..b_depth."""
    rng = random.Random(f"moments-roundtrip:{depth}:{k}")
    a = [positive_fraction(rng) for _ in range(depth + 1)]
    b = [positive_fraction(rng) for _ in range(depth)]
    return a, b


def moments(a: list, b: list, order: int) -> list:
    """Moments mu_0..mu_order of the J-fraction 1/(1 - a_0 x - 1 b_1 x^2/(1 - a_1 x - 2 b_2 x^2/...)).

    Weighted Motzkin paths: an up step weighs 1, a level step at height j
    weighs a_j, a down step from height j weighs j b_j.  This is independent
    of the continued-fraction code under test.
    """
    heights = [Fraction(1)]
    out = [Fraction(1)]
    for step in range(1, order + 1):
        top = min(len(heights), order - step + 1)
        nxt = [Fraction(0)] * (top + 1)
        for j, w in enumerate(heights):
            if w == 0:
                continue
            if j + 1 <= top:
                nxt[j + 1] += w
            if j <= top:
                nxt[j] += w * a[j]
            if j >= 1 and j - 1 <= top:
                nxt[j - 1] += w * j * b[j - 1]
        heights = nxt
        out.append(heights[0])
    return out


def cfrac_jobs(depth: int, k: int, workdir: Path) -> list:
    """The rec2moments and moments2rec jobs of pool entry (depth, k); writes
    their input files under `workdir`."""
    a, b = cfrac_recurrence(depth, k)
    rec_order = 2 * depth - 1
    mom_order = 2 * depth
    mus = moments(a, b, mom_order)
    a_s, b_s, mu_s = [str(v) for v in a], [str(v) for v in b], [str(v) for v in mus]
    rec_path = workdir / f"rec-{depth}-{k}.json"
    mom_path = workdir / f"moments-{depth}-{k}.json"
    rec_path.write_text(json.dumps({"a": a_s, "b": b_s}))
    mom_path.write_text(json.dumps({"order": mom_order, "coeffs": mu_s}))
    to_moments = Job(
        f"cfrac/rec2moments/{depth}/{k}",
        (("cfrac", "rec2moments", str(rec_path), "--round-trip", "--order", str(rec_order)),),
        "cfrac",
        ("moment_gf", tuple(mu_s[: rec_order + 1])),
    )
    to_recurrence = Job(
        f"cfrac/moments2rec/{depth}/{k}",
        (("cfrac", "moments2rec", str(mom_path), "--round-trip", "--order", str(mom_order)),),
        "cfrac",
        ("recurrence", (tuple(a_s[:depth]), tuple(b_s[: depth - 1]))),
    )
    return [to_moments, to_recurrence]


# -- schedules -----------------------------------------------------------------------


def rounds(workload: str, seed: int, count: int, workdir: Path) -> list:
    """The first `count` rounds of `workload` at `seed`.  Every round holds the
    same mix of job classes.  The seed shuffles the order inside each round
    and, per class, the order in which the pool entries are used, so a run
    repeats no entry before it has used them all.  Input files are written
    under `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep-build":
        classes, size = list(FAMILY_ORDERS), FAMILY_POOL
    elif workload == "verify-sweep":
        classes, size = ["all"], VERIFY_SEEDS
    elif workload == "moments-roundtrip":
        classes, size = list(CFRAC_DEPTHS), CFRAC_POOL
    else:
        raise ValueError(f"unknown workload {workload!r}")
    walk = {c: rng.sample(range(size), size) for c in classes}
    cfrac_made = {}
    out = []
    for r in range(count):
        order = rng.sample(classes, len(classes))
        picks = [(c, walk[c][r % size]) for c in order]
        if workload == "deep-build":
            out.append([family_job(f, k) for f, k in picks])
        elif workload == "verify-sweep":
            out.append([verify_job(s, v) for s, v in picks])
        else:
            jobs = []
            for entry in picks:
                if entry not in cfrac_made:
                    cfrac_made[entry] = cfrac_jobs(*entry, workdir)
                jobs += cfrac_made[entry]
            out.append(jobs)
    return out


def warmup_job(workload: str, workdir: Path) -> Job:
    """The set-up's warm-up job: one small job of the workload's own kind,
    the same for every seed so that set-up time does not vary with it."""
    if workload == "deep-build":
        return family_job("sheffer", 0, order=28)
    if workload == "verify-sweep":
        return verify_job("base", 0)
    if workload == "moments-roundtrip":
        return cfrac_jobs(CFRAC_DEPTHS[0], 0, workdir)[0]
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str, workdir: Path) -> list:
    """Every job `rounds` can draw for `workload`, and its warm-up job."""
    if workload == "deep-build":
        jobs = [family_job(f, k) for f in FAMILY_ORDERS for k in range(FAMILY_POOL)]
    elif workload == "verify-sweep":
        jobs = [verify_job("all", v) for v in range(VERIFY_SEEDS)]
    elif workload == "moments-roundtrip":
        jobs = [j for d in CFRAC_DEPTHS for k in range(CFRAC_POOL) for j in cfrac_jobs(d, k, workdir)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    warmup = warmup_job(workload, workdir)
    return jobs if warmup in jobs else jobs + [warmup]


# -- output checks ---------------------------------------------------------------------


def input_bytes(job: Job) -> int:
    """Bytes of a job's input: its argvs, with a cfrac job's input file named
    relative to its directory, plus that file's size.  Where the checkout
    lies does not change it."""
    total = 0
    for call in job.calls:
        argv = list(call)
        if job.kind == "cfrac":
            path = Path(argv[2])
            argv[2] = path.name
            total += path.stat().st_size
        total += len(" ".join(argv).encode())
    return total


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_value(job: Job, outputs: tuple):
    """What golden.json stores for a job, given the output of each call: the
    sha256 of the output, or for a verify job the total number of checks
    (verify output is gated by counts, not bytes)."""
    if job.kind == "verify":
        return sum(json.loads(text)["total"] for text in outputs)
    return digest("".join(outputs))


def check(job: Job, rc: int, outputs: tuple, golden):
    """None when the job's output is right, otherwise the reason it is not.
    `rc` is the first non-zero exit code of the job's calls, or 0.  With
    `golden` None the recorded digest or total is not compared."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        payloads = [json.loads(text) for text in outputs]
    except ValueError:
        return "output is not JSON"
    if job.kind == "verify":
        failed = [p for p in payloads if p.get("failed") != 0]
        if failed:
            return "checks failed in suite " + ", ".join(str(p.get("suite")) for p in failed)
    payload = payloads[0]
    if job.kind == "family" and not all(c["pass"] for c in payload.get("checks", [])):
        return "a construction check failed"
    if job.kind == "cfrac":
        field, expected = job.oracle
        if payload.get("round_trip") is not True:
            return "round trip did not agree"
        if field == "moment_gf":
            got = tuple(payload["moment_gf"]["coeffs"])
        else:
            got = (tuple(payload["recurrence"]["a"]), tuple(payload["recurrence"]["b"]))
        if got != expected:
            return f"{field} differs from the independently computed one"
    if golden is None:
        return None
    if job.key not in golden:
        return "no recorded output for this job"
    if record_value(job, outputs) != golden[job.key]:
        what = "check total" if job.kind == "verify" else "digest"
        return f"output {what} differs from the recorded one"
    return None


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
