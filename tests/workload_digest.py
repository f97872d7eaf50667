"""Byte-identity digests of the benchmark workloads.

    PYTHONPATH=src python tests/workload_digest.py --seed 11 --seed 12
    PYTHONPATH=src python tests/workload_digest.py --golden

For each seed and each workload of ``perfbench.workloads``, the script
writes the workload's input files into a temporary directory, runs every
call of one pass in this process through ``elicit.cli.main``, and prints
one sha-256 per workload over each call's exit code, stdout and stderr,
in call order.  With ``--calls`` it also prints one line per call: the
command and its arguments (input files by base name), the exit code,
the length of stdout and a sha-256 over that call's three parts, so two
runs show which calls moved (``diff`` the outputs).  The temporary
directory's path is replaced by a fixed name before hashing, so two
checkouts print the same digests exactly when the CLI answers every
call with the same bytes.  Run it on the
parent and on a change to show that the change keeps CLI output
byte-identical.  With ``--golden`` it also prints one sha-256 over the
name, exit code, stdout and stderr of every golden case of
``tests/test_golden.py``, read as ``tests/workload_coverage.py`` reads
them, with the inputs directory's path replaced by a fixed name.  It
reads ``perfbench`` and changes nothing in it; pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from elicit import cli  # noqa: E402
from perfbench import workloads  # noqa: E402
from workload_coverage import GOLDEN, _golden_argv, _golden_cases  # noqa: E402


def _answer(argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main(argv)``, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return str(code), out.getvalue(), err.getvalue()


def digest(workload: str, seed: int) -> tuple:
    """(sha-256 hex digest of one pass of ``workload``, one line per call
    naming its command, input files, exit code and own sha-256)."""
    h = hashlib.sha256()
    lines = []
    with tempfile.TemporaryDirectory() as work:
        for call in workloads.generate(workload, seed, work):
            code, out, err = _answer(list(call.args))
            one = hashlib.sha256()
            for part in (code, out, err):
                part = part.replace(work, "<work>").encode() + b"\0"
                h.update(part)
                one.update(part)
            args = [os.path.basename(a) if a.startswith(work) else a for a in call.args]
            size = len(out.encode())
            lines.append(f"  {' '.join(args)}  exit {code}  stdout {size}  sha256 {one.hexdigest()}")
    return h.hexdigest(), lines


def golden_digest() -> tuple:
    """(sha-256 hex digest over every golden case's name, exit code,
    stdout and stderr, in case order; how many cases there are)."""
    h = hashlib.sha256()
    cases = _golden_cases()
    for name, args in cases.items():
        h.update(name.encode() + b"\0")
        for part in _answer(_golden_argv(args)):
            h.update(part.replace(GOLDEN, "<golden>").encode() + b"\0")
    return h.hexdigest(), len(cases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", default=[])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--calls", action="store_true", help="also print one line per call")
    parser.add_argument("--golden", action="store_true", help="also print one digest over the golden cases")
    args = parser.parse_args(argv)
    if not args.seed and not args.golden:
        parser.error("give --seed or --golden")
    if args.golden:
        hexdigest, count = golden_digest()
        print(f"golden {count:3d} cases  sha256 {hexdigest}")
    for seed in args.seed:
        for workload in args.workload or workloads.WORKLOADS:
            hexdigest, lines = digest(workload, seed)
            print(f"seed {seed} {workload:<9} {len(lines):3d} calls  sha256 {hexdigest}")
            if args.calls:
                print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
