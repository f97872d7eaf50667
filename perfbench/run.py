"""Benchmark of the elicit CLI and library.

    python3 perfbench/run.py --workload implement|refute|convex|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The seed generates the workload's JSON input files (see workloads.py)
into ``.perfbench_work/``; a fresh worker process then drives
``elicit.cli.main`` on them in process, in a closed loop with one
client, for ``--seconds``.  BLAS and OpenMP run one thread each.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

  setup_s      median time for a fresh interpreter to import elicit.cli
               and build its parser, which every CLI invocation pays
  session_s    median time of one pass over the workload's CLI calls
  lib_s        median time of the same operations as library calls on
               objects loaded beforehand
  desk_p50_ms, desk_p90_ms
               per-call latency over the desk-scale calls only
  peak_rss_mb  peak resident memory of the worker process
  stdout_mb    bytes of stdout of one pass
  ok_frac      share of the calls attempted that gave the expected
               exit code and a correct output (1 - failed/attempted)

``--trace 1`` prints the per-layer metrics of a traced run: the self
time of each layer per pass (median over passes), the work counts per
pass, and ``trace.overhead_s``, the traced minus the untraced pass time.
The spans are written to ``.perfbench_work/spans-<workload>-seed<N>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, prefixed
with ``#``, describe the run and its environment.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import tracing, workloads  # noqa: E402

#: Thread pins of every measured process: two BLAS threads contend on a
#: two-core machine and make the timings slower and noisier.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Fresh interpreters timed for setup_s, after one untimed warm-up.
SETUP_RUNS = 15
SETUP_CODE = """\
import contextlib, io, time
start = time.perf_counter()
import elicit.cli
with contextlib.redirect_stdout(io.StringIO()):
    elicit.cli.main(["--help"])
elapsed = time.perf_counter() - start
from perfbench import clock  # after the timed part: it imports numpy
clock.calibrate()
speed = 0.5 * (clock.calibrate() + clock.calibrate())
print(elapsed, elapsed * clock.REF_S / speed)
"""
#: A run must end within this many seconds.
RUN_LIMIT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("session_s", "s"),
    ("lib_s", "s"),
    ("desk_p50_ms", "ms"),
    ("desk_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("stdout_mb", "MB"),
    ("ok_frac", "ratio"),
]

COUNTS = [
    "witnesses",
    "monotone.longest_paths_calls",
    "core.conjugate_calls",
    "core.eval_convex_calls",
    "lp.feasible_point_calls",
]

PER_LAYER = (
    [(f"{layer}_ms", "ms") for layer in tracing.layers()]
    + [(name, "count") for name in COUNTS]
    + [("pairs", "count"), ("trace.overhead_s", "s")]
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    env.pop("ELICIT_TOL", None)  # the default tolerance, as the checks assume
    return env


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": THREAD_ENV,
        "machine": platform.machine(),
    }


def measure_setup(deadline: float) -> tuple:
    """(raw, rescaled) setup times of SETUP_RUNS fresh interpreters.

    The program's bytecode cache is written first, as an install does, so
    that the timed imports read it whether or not the environment lets
    the interpreter write bytecode (PYTHONDONTWRITEBYTECODE).
    """
    if not compileall.compile_dir(os.path.join(SRC, "elicit"), quiet=1):
        raise RuntimeError("compiling the program's bytecode failed")
    raw, scaled = [], []
    for k in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing elicit.cli failed:\n{proc.stderr}")
        if k:
            r, s = proc.stdout.split()
            raw.append(float(r))
            scaled.append(float(s))
    return raw, scaled


def run_worker(calls_path: str, mode: str, seconds: float, work: str, deadline: float, spans=None) -> dict:
    result_path = os.path.join(work, f"{mode}-result.json")
    cmd = [sys.executable, "-m", "perfbench.worker", calls_path, result_path,
           "--mode", mode, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(res: dict, setup: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "session_s": statistics.median(res["session_s"]),
        "lib_s": statistics.median(res["lib_s"]),
        "desk_p50_ms": statistics.median(res["desk_ms"]),
        "desk_p90_ms": _p90(res["desk_ms"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "stdout_mb": res["stdout_bytes"] / 1e6,
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
    }


def per_layer(res: dict, calls: list) -> dict:
    out = {}
    for layer in tracing.layers():
        out[f"{layer}_ms"] = statistics.median(p.get(layer, 0) for p in res["self_ns"]) / 1e6
    for name in COUNTS:
        out[name] = statistics.median(p.get(name, 0) for p in res["counts"])
    out["pairs"] = sum(c.pairs for c in calls)  # computed from input sizes
    out["trace.overhead_s"] = statistics.median(res["traced_session_s"]) - statistics.median(
        res["session_s"]
    )
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"run-{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        calls = workloads.generate(name, seed, os.path.join(work, "inputs"))
        calls_path = os.path.join(work, "calls.json")
        workloads.save_calls(calls, calls_path)
        print(f"# perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
        print(f"# env {json.dumps(environment(), sort_keys=True)}")
        print(f"# calls per pass: {len(calls)} ({sum(c.desk for c in calls)} desk-scale)")
        if trace:
            spans = os.path.join(base, f"spans-{name}-seed{seed}.jsonl")
            res = run_worker(calls_path, "traced", seconds, work, deadline, spans)
            metrics, units = per_layer(res, calls), dict(PER_LAYER)
            layer_ms = {k: v for k, v in metrics.items() if k.endswith("_ms")}
            top = max(layer_ms, key=layer_ms.get)
            share = layer_ms[top] / max(1e-12, sum(layer_ms.values()))
            print(f"# passes: {len(res['traced_session_s'])} traced, {len(res['session_s'])} untraced")
            print(f"# dominant layer: {top[:-3]} ({share:.0%} of traced self time)")
            if res["absent"]:
                print(f"# absent from the code (reported as 0): {', '.join(res['absent'])}")
            print(f"# spans: {os.path.relpath(spans, ROOT)}")
        else:
            setup_raw, setup = measure_setup(deadline)
            res = run_worker(calls_path, "plain", seconds, work, deadline)
            metrics, units = end_to_end(res, setup), dict(END_TO_END)
            print(f"# passes: {len(res['session_s'])}, desk samples: {len(res['desk_ms'])}")
            raw = [("setup", setup_raw), ("session", res["session_raw_s"]), ("lib", res["lib_raw_s"])]
            print("# raw wall-clock medians: " + ", ".join(
                f"{key}_s={statistics.median(v):.6f}" for key, v in raw))
        for key, value in metrics.items():
            print(f"# {key:44s} {value:14.6f} {units[key]}")
        for err in res["errors"]:
            print(f"# FAILED {err}")
        result = {
            "correct": not res["errors"] and res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "elicit", "cli.py")):
        print(f"perfbench: no program at {SRC}/elicit; run from a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        try:
            run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
