#!/usr/bin/env python3
"""Record golden.json: run every job each workload can draw and store its
output digest (verify jobs: check total).

    python3 bench/record.py

Run it only at a commit whose outputs are known good; the benchmark then
gates every later commit on byte-identical output.  The multiterm verify
suite is gated by its check total alone (it currently goes through the
``except Exception`` fallback of ``multiterm_family``), as is every verify
job.
"""
from __future__ import annotations

import json
import sys

import jobs as jobs_mod
from run import WORK, Runner, import_umbral


def main() -> int:
    golden = {}
    runner = Runner(golden=None)
    runner.modules = import_umbral()
    WORK.mkdir(exist_ok=True)
    for workload in jobs_mod.WORKLOADS:
        for job in jobs_mod.pool(workload, WORK):
            outputs, seconds, problem = runner.run(job)
            if problem:
                print(f"FAIL {runner.failures[-1]}", file=sys.stderr)
                return 1
            golden[job.key] = jobs_mod.record_value(job, outputs)
            print(f"{job.key} {seconds:.3f} s", flush=True)
    with open(jobs_mod.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
