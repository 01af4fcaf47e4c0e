"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import run
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# small jobs touching every layer: families, checks, opalg, series, orthocore,
# associated (assoc suite is too slow here; longdiv covers long division),
# binomial and verify
SMALL = [
    jobs.Job("small/sheffer", (("family", "sheffer", "--params", "lambda=1/2,a=1/3,b=2", "--order", "8"),), "family"),
    jobs.Job("small/jacobi", (("family", "jacobi", "--params", "lambda=1/3,a=2/5,r=3/7", "--order", "8"),), "family"),
    jobs.Job("small/longdiv", (("verify", "longdiv", "--order", "6", "--seed", "1", "--samples", "1"),), "verify"),
    jobs.Job("small/base", (("verify", "base", "--order", "6", "--seed", "2", "--samples", "1"),), "verify"),
]


def small_jobs(workdir):
    return SMALL + jobs.cfrac_jobs(6, 0, workdir)


def traced_pass(workdir):
    """(untraced outputs, traced outputs, tracer, jobs) of the small jobs."""
    workdir.mkdir()
    small = small_jobs(workdir)
    runner = run.Runner(golden=None)
    runner.modules = run.import_umbral()
    plain = [runner.run(job)[0] for job in small]
    tracer = Tracer()
    tracer.install(runner.modules)
    try:
        results = [runner.run(job) for job in small]
    finally:
        tracer.uninstall()
    assert runner.failures == []
    return plain, [outs for outs, _, _ in results], tracer, small


def test_rounds_repeat_per_seed_and_keep_the_mix(tmp_path):
    for workload in jobs.WORKLOADS:
        a = jobs.rounds(workload, 5, 3, tmp_path)
        b = jobs.rounds(workload, 5, 3, tmp_path)
        c = jobs.rounds(workload, 6, 3, tmp_path)
        assert [[j.calls for j in r] for r in a] == [[j.calls for j in r] for r in b]
        assert [[j.key for j in r] for r in a] != [[j.key for j in r] for r in c]
        classes = {tuple(sorted(j.key.rsplit("/", 1)[0] for j in r)) for r in a + c}
        assert len(classes) == 1


def test_every_pool_job_has_a_recorded_output(tmp_path):
    golden = jobs.load_golden()
    for workload in jobs.WORKLOADS:
        keys = {job.key for job in jobs.pool(workload, tmp_path)}
        assert keys <= golden.keys()


def test_moment_oracle_agrees_with_umbral():
    run.import_umbral()
    from umbral.orthocore import Recurrence, moments_from_recurrence

    a, b = jobs.cfrac_recurrence(12, 1)
    ours = jobs.moments(a, b, 23)
    theirs = moments_from_recurrence(Recurrence(tuple(a), tuple(b)), 23).moment_gf.coeffs
    assert list(theirs) == ours


def test_check_rejects_wrong_output():
    job = jobs.Job("k", (("family",),), "family")
    good = json.dumps({"checks": [{"pass": True}]})
    golden = {"k": jobs.digest(good)}
    assert jobs.check(job, 0, (good,), golden) is None
    assert jobs.check(job, 1, (good,), golden) == "exit code 1"
    assert "digest" in jobs.check(job, 0, (good + " ",), golden)
    # a sweep is gated by the check total summed over its suites' calls
    sweep = jobs.verify_job("all", 0)
    assert len(sweep.calls) == len(jobs.VERIFY_SUITES)
    parts = (json.dumps({"suite": "base", "failed": 0, "total": 3}),
             json.dumps({"suite": "ultra", "failed": 0, "total": 4}))
    assert jobs.check(sweep, 0, parts, {sweep.key: 7}) is None
    assert "total" in jobs.check(sweep, 0, parts, {sweep.key: 6})
    broken = parts[:1] + (json.dumps({"suite": "ultra", "failed": 1, "total": 4}),)
    assert "ultra" in jobs.check(sweep, 0, broken, {sweep.key: 7})


def test_tracer_wraps_reimported_names_and_restores_them():
    modules = run.import_umbral()
    original = modules["families"].sheffer_core
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert modules["associated"].sheffer_core is modules["families"].sheffer_core
        assert modules["associated"].sheffer_core.__wrapped__ is original
        assert hasattr(modules["families"].riccati_series, "__wrapped__")
        assert hasattr(modules["associated"].riccati_series, "__wrapped__")
        assert hasattr(modules["verify"].SUITES["base"], "__wrapped__")
        assert hasattr(modules["series"].TruncSeries.__rmul__, "__wrapped__")
    finally:
        tracer.uninstall()
    assert modules["associated"].sheffer_core is original
    assert not hasattr(modules["verify"].SUITES["base"], "__wrapped__")
    assert not hasattr(modules["series"].TruncSeries.__mul__, "__wrapped__")


def test_traced_outputs_match_and_counters_repeat_exactly(tmp_path):
    # the second pass reads its input files from a directory with a longer path
    plain1, traced1, t1, jobs1 = traced_pass(tmp_path / "a")
    plain2, traced2, t2, jobs2 = traced_pass(tmp_path / "a-directory-with-a-longer-path")
    assert traced1 == plain1 and traced2 == plain2 == plain1

    def counters(tracer, small):
        summary = tracer.summary()
        return (
            {name: row[0] for name, row in summary["per_name"].items()},
            tracer.products, tracer.repeats, tracer.bits, summary["base_rebuilds"],
            sum(jobs.input_bytes(job) for job in small),
        )

    assert counters(t1, jobs1) == counters(t2, jobs2)
    calls = counters(t1, jobs1)[0]
    for name in ("series.mul", "series.div", "opalg.matmul", "opalg.inverse",
                 "orthocore.recurrence_from_moments", "families.sheffer_core",
                 "families.checks.op_check", "associated.long_division_checks",
                 "verify.suite_base", "cli.emit", "cli.main"):
        assert calls.get(name, 0) > 0, name
    assert t1.products > 0 and t1.bits["opalg"] > 0


def test_self_times_add_up_to_the_root_spans(tmp_path):
    _, _, tracer, _ = traced_pass(tmp_path / "a")
    summary = tracer.summary()
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    total_self = sum(summary["layer_self"].values())
    assert total_self == pytest.approx(roots, rel=1e-6)
    assert summary["build_s"] > summary["check_s"] > 0


def test_benchmark_json_names_the_reported_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "jobs_per_s", "job_s_p50", "peak_rss_mb"}
    _, outputs, tracer, small = traced_pass(tmp_path / "a")
    values = run.layer_values(tracer, small, outputs, say=lambda line: None)
    assert {name for name, _ in run.PER_LAYER} <= values.keys()


def test_exported_umbral_order_is_ignored_in_process(monkeypatch):
    monkeypatch.setenv("UMBRAL_ORDER", "abc")
    runner = run.Runner(golden=None)
    runner.modules = run.import_umbral()
    outputs, _, problem = runner.run(SMALL[0])
    assert problem is None and runner.failures == []
    assert json.loads(outputs[0])["order"] == 8


def run_bench(cwd, *args, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


def test_exported_umbral_order_changes_nothing():
    env = dict(os.environ, UMBRAL_ORDER="abc")
    proc = run_bench(ROOT, "--workload", "moments-roundtrip", "--seed", "3", "--seconds", "1", env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "jobs_per_s", "job_s_p50", "peak_rss_mb"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "deep-build", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
