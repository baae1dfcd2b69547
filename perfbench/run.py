"""Pipeline benchmark for the hhtmotion CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dance-namemd --seed 1 --seconds 48 --trace 0

A run generates the workload's inputs from ``--seed``, warms up, then runs
passes of the workload's CLI stages as separate processes, one at a time,
with the caller's environment (plus the checkout's ``src`` on PYTHONPATH).
It makes as many passes as come nearest to ``--seconds`` in total, judged by
the first pass, and checks every output.  ``--trace 1`` instead runs one
untraced pass and replays it in-process with spans around every layer call
(see tracing.py), reporting per-layer metrics.

Everything printed before the last line is a human-readable report; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The full record (seed, generator parameters, environment, every invocation
and every span) goes to ``.perfbench/results/``.  Work files live under
``.perfbench/work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import proc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# Gated metrics.  Per-stage times are reported beside them but not gated:
# single invocations of 1-5 s vary by +-15% on a shared two-core machine.
END_TO_END = {"pipeline_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "output_mb": "MB",
              "setup_s": "s"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment():
    from importlib import metadata

    import numpy

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "click": version("click"),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "machine": platform.machine(),
    }


def setup(work, name, seed, size, env):
    """Generate the inputs, then one warm-up invocation.

    ``import hhtmotion.cli`` loads every module any stage uses, so a single
    invocation compiles the bytecode and pages in the code for all stages.
    """
    start = time.perf_counter()
    workload = workloads.build(name, os.path.join(work, "inputs"), seed, size)
    warm = proc.run_cli("warm-up", ["--version"], env, work)
    if warm.exit_code != 0:
        raise RuntimeError(f"warm-up invocation failed: {warm.stderr.strip()}")
    return workload, time.perf_counter() - start


def run_pass(workload, pass_dir, env):
    """One pass: every step as a child process, then every output check."""
    os.makedirs(pass_dir)
    steps = workload.plan(pass_dir)
    start = time.perf_counter()
    invocations = [proc.run_cli(step.stage, step.argv, env, pass_dir) for step in steps]
    wall = time.perf_counter() - start
    errors = {}
    for i, (step, inv) in enumerate(zip(steps, invocations)):
        if inv.exit_code != 0:
            errors[i] = f"{step.stage} exited {inv.exit_code}: {inv.stderr.strip()[-300:]}"
        else:
            message = step.check()
            if message:
                errors[i] = message
    hashes = [{os.path.basename(p): checks.sha256(p) for p in step.outputs if os.path.exists(p)}
              for step in steps]
    written = sum(os.path.getsize(os.path.join(pass_dir, f)) for f in os.listdir(pass_dir))
    return {"steps": steps, "invocations": invocations, "wall": wall, "errors": errors,
            "hashes": hashes, "bytes": written}


def compare_hashes(reference, current, errors, what):
    """Mark steps whose outputs differ from ``reference`` (same seed, same inputs)."""
    for i, (want, got) in enumerate(zip(reference, current)):
        differ = sorted(f for f in set(want) | set(got) if want.get(f) != got.get(f))
        if differ and i not in errors:
            errors[i] = f"{what}: {', '.join(differ)} differ from the reference pass"


def pass_count(first_pass_s, seconds, min_passes):
    """Passes whose total comes nearest to ``seconds``, judged by the first pass."""
    return max(min_passes, round(seconds / first_pass_s))


def end_to_end(passes, setups):
    """Gated metrics, and each stage's wall times per invocation."""
    invocations = [inv for p in passes for inv in p["invocations"]]
    metrics = {
        "pipeline_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(sum(i.cpu_s for i in p["invocations"]) for p in passes),
        "peak_rss_mb": max(i.max_rss_mb for i in invocations),
        "output_mb": statistics.median(p["bytes"] for p in passes) / 1e6,
        "setup_s": statistics.median(setups),
    }
    stages = {stage: [i.wall_s for i in invocations if i.stage == stage]
              for stage in workloads.STAGES}
    return metrics, stages


def untraced(name, seed, seconds, work, env, size, min_passes):
    setups = []
    for k in range(SETUP_REPEATS):
        workload, took = setup(os.path.join(work, f"setup{k}"), name, seed, size, env)
        setups.append(took)
    base = os.path.join(work, f"setup{SETUP_REPEATS - 1}")
    passes = [run_pass(workload, os.path.join(base, "pass0"), env)]
    while len(passes) < pass_count(passes[0]["wall"], seconds, min_passes):
        current = run_pass(workload, os.path.join(base, f"pass{len(passes)}"), env)
        compare_hashes(passes[0]["hashes"], current["hashes"], current["errors"],
                       f"pass {len(passes)}")
        passes.append(current)
    metrics, stages = end_to_end(passes, setups)
    attempted = sum(len(p["invocations"]) for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    detail = {"setups_s": setups, "passes": [describe_pass(p) for p in passes],
              "stage_s": stages, "error_rate": failed / attempted}
    return workload, metrics, attempted, failed, detail


def traced(name, seed, work, env, size, src):
    workload, _ = setup(work, name, seed, size, env)
    measured = run_pass(workload, os.path.join(work, "pass0"), env)
    sys.path.insert(0, src)
    replay_dir = os.path.join(work, "replay")
    os.makedirs(replay_dir)
    steps = workload.plan(replay_dir)
    tracer, codes, records = tracing.replay(steps, pass_id=1)
    replay_errors = {i: f"replay of {steps[i].stage} exited {code}"
                     for i, code in enumerate(codes) if code != 0}
    replay_hashes = [{os.path.basename(p): checks.sha256(p) for p in s.outputs
                      if os.path.exists(p)} for s in steps]
    compare_hashes(measured["hashes"], replay_hashes, replay_errors, "replay")
    import_s, import_scipy_s = tracing.import_probe(env, work)
    archives = sum(os.path.getsize(s.outputs[0]) for s in measured["steps"]
                   if s.stage == "decompose")
    walls = [inv.wall_s for inv in measured["invocations"]]
    metrics = tracing.layer_metrics(tracer, records, walls, import_s, import_scipy_s, archives)
    attempted = 2 * len(steps)
    failed = len(measured["errors"]) + len(replay_errors)
    detail = {"passes": [describe_pass(measured)], "replay_errors": replay_errors,
              "moves": {k: v[1] for k, v in tracing.PER_LAYER.items()}}
    return workload, metrics, attempted, failed, detail, tracer


def describe_pass(p):
    return {
        "wall_s": p["wall"], "bytes": p["bytes"], "errors": p["errors"],
        "invocations": [{"stage": i.stage, "argv": i.argv, "wall_s": i.wall_s, "cpu_s": i.cpu_s,
                         "max_rss_mb": i.max_rss_mb, "exit_code": i.exit_code}
                        for i in p["invocations"]],
    }


def report(name, seed, metrics, units, attempted, failed, detail):
    print(f"workload {name}  seed {seed}  invocations {attempted}  failed {failed}")
    print(f"  {'error_rate':<28} {failed / attempted:12.4f} ratio")
    for stage, walls in detail.get("stage_s", {}).items():
        print(f"  {stage + '_s':<28} {statistics.median(walls):12.4f} s   "
              f"median of n={len(walls)}, max {max(walls):.4f} s")
    for metric, value in metrics.items():
        print(f"  {metric:<28} {value:12.4f} {units[metric]}")
    for p in detail.get("passes", []):
        for i, message in sorted(p["errors"].items()):
            print(f"  FAILED step {i}: {message}")
    for i, message in sorted(detail.get("replay_errors", {}).items()):
        print(f"  FAILED replay step {i}: {message}")


def run(root, name, seed, seconds, trace_mode, size=workloads.FULL, min_passes=1):
    """One benchmark run; returns the result object printed as the last line."""
    src = os.path.join(root, "src")
    env = proc.cli_env(src)
    work = os.path.join(root, ".perfbench", "work", f"{name}-{seed}-{trace_mode}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = None
    try:
        if trace_mode:
            workload, metrics, attempted, failed, detail, tracer = traced(
                name, seed, work, env, size, src)
            units = {k: v[0] for k, v in tracing.PER_LAYER.items()}
        else:
            workload, metrics, attempted, failed, detail = untraced(
                name, seed, seconds, work, env, size, min_passes)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace_mode,
              "generator": workload.params, "size": size.__dict__, "environment": environment(),
              "result": result, "detail": detail}
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = os.path.join(results_dir, f"{name}-seed{seed}-trace{trace_mode}-{stamp}-{os.getpid()}")
    with open(base + ".json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    if tracer is not None:
        tracing.write_spans(base + ".spans.jsonl", tracer)
    report(name, seed, metrics, units, attempted, failed, detail)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hhtmotion", "cli.py")):
        print("error: no src/hhtmotion here; run from the root of an hhtmotion checkout",
              file=sys.stderr)
        return 2
    result = run(root, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
