"""Library time of each call of one benchmark workload pass.

    PYTHONPATH=src python tests/call_times.py implement --seed 11 --repeat 7 [--cli]

For one workload and seed of ``perfbench.workloads``, the script writes
the input files into a temporary directory and builds each call's
library operation as ``perfbench.worker.lib_op`` builds it, on objects
loaded once.  It times each operation ``--repeat`` times in this process
and prints, per call, the best time in milliseconds with the command and
its arguments (input files by base name), then the number of calls and
the sum of their best times per command, and the total.  With ``--cli``
it also times each call through ``elicit.cli.main`` as
``perfbench.worker.CliRunner`` runs it, stdout and stderr sent to a
sink, and prints that best time after the library time: the difference
is what reading the files, building the types and ``dumps`` cost.  Run
it on the parent and on a change to see which calls a change speeds up
or slows down.  It reads ``perfbench`` and changes nothing in it; pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import worker, workloads  # noqa: E402


def _lib_seconds(op) -> float:
    start = time.perf_counter()
    try:
        op()
    except worker.CERTIFIED:  # a certified negative is an answer
        pass
    return time.perf_counter() - start


def best_times(workload: str, seed: int, repeat: int, cli: bool = False) -> list:
    """(command, arguments by base name, best library seconds, best CLI
    seconds or None) of each call."""
    rows = []
    with tempfile.TemporaryDirectory() as work:
        for call in workloads.generate(workload, seed, work):
            op = worker.lib_op(call)
            runner = worker.CliRunner([call])
            best, best_cli = float("inf"), float("inf") if cli else None
            for _ in range(repeat):
                gc.collect()
                best = min(best, _lib_seconds(op))
                if cli:
                    gc.collect()
                    best_cli = min(best_cli, runner.run_one(call)[0])
            args = [os.path.basename(a) if a.startswith(work) else a for a in call.args]
            rows.append((call.command, " ".join(args[1:]), best, best_cli))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeat", type=int, default=5, help="timings per call (best kept)")
    parser.add_argument("--cli", action="store_true", help="also time each call through cli.main")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = best_times(args.workload, args.seed, args.repeat, args.cli)

    def ms(seconds) -> str:  # a library time, and the CLI time after it with --cli
        return " ".join(f"{t * 1e3:9.3f} ms" for t in seconds[: 1 + args.cli])

    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for k, (command, rest, best, best_cli) in enumerate(rows):
        print(f"{k:4d} {ms((best, best_cli))}  {command} {rest}")
        totals[command][0] += 1
        totals[command][1] += best
        totals[command][2] += best_cli or 0.0
    what = "library and CLI" if args.cli else "library"
    print(f"seed {args.seed} {args.workload}, {what}, best of {args.repeat}:")
    for command, (count, *seconds) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"  {command:<16} {count:3d} calls {ms(seconds)}")
    total = [sum(row[i] or 0.0 for row in rows) for i in (2, 3)]
    print(f"  {'total':<16} {len(rows):3d} calls {ms(total)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
