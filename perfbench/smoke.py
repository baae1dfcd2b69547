"""Tiny-size smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload on small inputs, untraced (two passes, so the
reproducibility check compares them) and traced, with every output check,
and confirms that each run reports exactly the metrics BENCHMARK.json names.
Also confirms that the benchmark refuses to run, without printing a result,
where there is no source tree.  Exits 1 on the first failure.  Takes about
two minutes on two cores; it is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES)
    for name in workloads.NAMES:
        for trace_mode in (0, 1):
            result = run.run(ROOT, name, seed=7, seconds=0, trace_mode=trace_mode,
                             size=workloads.TINY, min_passes=2)
            assert result["correct"] and result["failed"] == 0, (name, trace_mode, result)
            assert set(result["metrics"]) == expected[trace_mode], (name, trace_mode)
            assert result["attempted"] >= 1
            print(f"ok  {name} trace={trace_mode}", flush=True)

    empty = os.path.join(ROOT, ".perfbench", "smoke-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               workloads.NAMES[0], "--seed", "1", "--seconds", "1"],
                              cwd=empty, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(empty, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  refuses to run without src/hhtmotion")
    return 0


if __name__ == "__main__":
    sys.exit(main())
