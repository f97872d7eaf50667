"""One measured process: runs a workload's passes and writes the result.

    python3 -m perfbench.worker CALLS.json RESULT.json --mode plain|traced --seconds S

``plain`` alternates one pass of in-process CLI calls with one pass of
the same operations as direct library calls, in a closed loop with one
client, until the time is up.  ``traced`` alternates an untraced CLI
pass with a traced one, so the difference between the two is the cost
of tracing.  A warm-up pass, not timed, checks every output from the
inputs alone; later passes must reproduce its output byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from typing import Callable, List, Optional

import numpy as np

from . import checks, clock, tracing
from .workloads import Call, load_calls

from elicit import cli, duality, jsonio, monotone, payments, properties, scoring
from elicit.core import (
    InconsistentAnchorsError,
    NegEntropy,
    NotImplementableError,
    NotMonotoneError,
    UnreachableActionError,
)

#: Library errors that are a certified negative answer (CLI exit code 2).
CERTIFIED = (
    NotImplementableError,
    NotMonotoneError,
    InconsistentAnchorsError,
    UnreachableActionError,
)

#: A run makes at least this many timed passes, whatever its length.
MIN_PASSES = 3
#: ... and at least this many desk-scale latency samples, so that the
#: 90th percentile has ten samples beyond it.
MIN_DESK_SAMPLES = 100


class _Sink:
    """Stands in for stdout / stderr during one CLI call."""

    def __init__(self):
        self.parts: List[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


class CliRunner:
    """Runs the calls through ``cli.main`` in this process."""

    def __init__(self, calls: List[Call]):
        self.calls = calls
        self.reference: List[Optional[bytes]] = [None] * len(calls)
        self.errors: List[str] = []
        self.stdout_bytes = 0

    def run_one(self, call: Call):
        """(seconds, exit code, stdout, stderr) of one call."""
        out, err = _Sink(), _Sink()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            code = cli.main(list(call.args))
        except Exception:  # an uncaught error is a failed call, not a crash
            code = None
            err.write(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - start
            sys.stdout, sys.stderr = saved
        return elapsed, code, out.text(), err.text()

    def warm_up(self) -> None:
        """One pass whose every output is checked; it sets the reference."""
        inputs = checks.Inputs()
        for k, call in enumerate(self.calls):
            _, code, out, err = self.run_one(call)
            self.stdout_bytes += len(out.encode())
            reason = checks.check_call(call, code, out, err, inputs)
            if reason is None:
                self.reference[k] = _digest(out)
            else:
                self.errors.append(reason)

    def timed_pass(self):
        """(times of the calls, failed calls)."""
        times, failed = clock.ScaledTimes(), 0
        for k, call in enumerate(self.calls):
            elapsed, code, out, _ = self.run_one(call)
            times.add(elapsed)
            if code != call.expect or self.reference[k] != _digest(out):
                failed += 1
        times.finish()
        return times, failed


# ---------------------------------------------------------------------------
# library calls


def _option(args: List[str], flag: str) -> List[str]:
    return [args[k + 1] for k, a in enumerate(args) if a == flag]


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def lib_op(call: Call) -> Callable[[], object]:
    """The public library call a CLI call makes, on objects loaded now."""
    cmd, a = call.command, call.args
    if cmd in ("check-wmon", "check-cmon", "synth-payments", "rev-interval"):
        ts, fam = jsonio.load_family_file(_read(a[1]))
        if cmd == "check-wmon":
            return lambda: monotone.check_wmon(ts, fam)
        if cmd == "check-cmon":
            return lambda: monotone.check_cmon(ts, fam)
        if cmd == "synth-payments":
            t0 = int((_option(a, "--t0") or [0])[0])
            return lambda: payments.rochet_payments(ts, fam, t0=t0)
        anchors = dict(
            (int(i), float(v)) for i, v in (s.split("=", 1) for s in _option(a, "--anchor"))
        )
        target = int(_option(a, "--target")[0])
        return lambda: payments.revenue_interval(ts, fam, anchors, target)
    if cmd in ("check-truthful", "check-local"):
        obj = _read(a[1])
        score = jsonio.load_score_table(obj["score"])
        ts = jsonio.load_typespace(obj["typeSpace"])
        if cmd == "check-truthful":
            return lambda: scoring.check_truthful(score, ts)
        radius = float(_option(a, "--radius")[0])
        report_of = list(range(len(ts)))
        return lambda: monotone.check_local_truthful(score, ts, report_of, radius)
    if cmd == "check-proper":
        table = jsonio.load_outcome_table(_read(a[1]))
        return lambda: scoring.check_proper(table)
    if cmd == "make-score":
        k = int(_option(a, "--reports")[0].split(":", 1)[1])
        reports = scoring.simplex_grid(int(_option(a, "--outcomes")[0]), k)
        return lambda: scoring.make_scoring_rule(NegEntropy(), reports)
    if cmd in ("duality-check", "game"):
        g = jsonio.load_convex(_read(a[1]))
        obj = _read(a[2])
        grid = jsonio.load_typespace(obj["typeSpace"])
        duals = np.asarray(obj["duals"], dtype=float)
        if cmd == "duality-check":
            return lambda: duality.check_duality_identities(g, grid, duals)
        return lambda: duality.elicitation_game_equilibria(g, grid, duals, grid)
    if cmd == "breg2power":
        g = jsonio.load_convex(_read(a[1]))
        sites = np.asarray(_read(a[2])["sites"], dtype=float)
        grid = jsonio.load_typespace(_read(a[4]))
        return lambda: properties.bregman_to_power(g, sites, grid)
    if cmd == "power-label":
        diag = jsonio.load_diagram(_read(a[1]))
        pts = jsonio.load_points(_read(a[2]))
        return lambda: properties.power_cells(diag, pts)
    if cmd == "fit-weights":
        sites = np.asarray(_read(a[1])["sites"], dtype=float)
        sample = jsonio.load_sample(_read(a[2]))
        return lambda: properties.fit_weights(sites, sample)
    if cmd == "level-convexity":
        sample = jsonio.load_sample(_read(a[1]))
        return lambda: properties.check_level_set_convexity(sample)
    raise ValueError(f"no library call for {cmd}")


def _verdict(result) -> int:
    """The exit code the CLI gives for this library result."""
    if hasattr(result, "passed"):
        return 0 if result.passed else 2
    if hasattr(result, "feasible"):
        return 0 if result.feasible else 2
    return 0


class LibRunner:
    def __init__(self, calls: List[Call]):
        self.ops = [(call.expect, lib_op(call)) for call in calls]

    def timed_pass(self):
        times, failed = clock.ScaledTimes(), 0
        for expect, op in self.ops:
            start = time.perf_counter()
            try:
                code = _verdict(op())
            except CERTIFIED:
                code = 2
            except Exception:  # any other error is a failed call
                code = 1
            times.add(time.perf_counter() - start)
            failed += code != expect
        times.finish()
        return times, failed


# ---------------------------------------------------------------------------


def run_plain(calls: List[Call], seconds: float) -> dict:
    clirun, librun = CliRunner(calls), LibRunner(calls)
    clirun.warm_up()
    if librun.timed_pass()[1]:
        clirun.errors.append("a library call gave another verdict than its CLI call")
    desk = [k for k, call in enumerate(calls) if call.desk]
    out = {key: [] for key in ("session_s", "session_raw_s", "lib_s", "lib_raw_s", "desk_ms")}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(out["session_s"]) < MIN_PASSES
        or len(out["desk_ms"]) < MIN_DESK_SAMPLES
    ):
        gc.collect()
        times, f = clirun.timed_pass()
        out["session_s"].append(sum(times.scaled))
        out["session_raw_s"].append(sum(times.raw))
        out["desk_ms"] += [times.scaled[k] * 1e3 for k in desk]
        failed += f
        gc.collect()
        times, f = librun.timed_pass()
        out["lib_s"].append(sum(times.scaled))
        out["lib_raw_s"].append(sum(times.raw))
        failed += f
        attempted += 2 * len(calls)
    out.update(
        stdout_bytes=clirun.stdout_bytes,
        attempted=attempted,
        failed=failed,
        errors=clirun.errors,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return out


def run_traced(calls: List[Call], seconds: float, spans_path: Optional[str]) -> dict:
    clirun = CliRunner(calls)
    clirun.warm_up()
    tracer = tracing.Tracer()
    out = {key: [] for key in ("session_s", "traced_session_s", "self_ns", "counts")}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(out["traced_session_s"]) < MIN_PASSES:
        gc.collect()
        times, f = clirun.timed_pass()
        out["session_s"].append(sum(times.scaled))
        failed += f
        gc.collect()
        with tracer:
            times, f = clirun.timed_pass()
        out["traced_session_s"].append(sum(times.scaled))
        failed += f
        # layer times are rescaled by their pass's mean calibration factor
        factor = sum(times.scaled) / sum(times.raw)
        layer_ns, layer_counts = tracer.take()
        out["self_ns"].append({k: v * factor for k, v in layer_ns.items()})
        out["counts"].append(layer_counts)
        attempted += 2 * len(calls)
    if spans_path:
        tracer.write(spans_path)
    out.update(absent=tracer.absent, attempted=attempted, failed=failed, errors=clirun.errors)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("calls")
    ap.add_argument("result")
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args(argv)
    calls = load_calls(args.calls)
    if args.mode == "plain":
        result = run_plain(calls, args.seconds)
    else:
        result = run_traced(calls, args.seconds, args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
