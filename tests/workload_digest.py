"""Byte-identity digests of the benchmark workloads.

    PYTHONPATH=src python tests/workload_digest.py --seed 11 --seed 12

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
byte-identical.  It reads ``perfbench`` and changes nothing in it; pytest
does not collect it.
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


def digest(workload: str, seed: int) -> tuple:
    """(sha-256 hex digest of one pass of ``workload``, one line per call
    naming its command, input files, exit code and own sha-256)."""
    h = hashlib.sha256()
    lines = []
    with tempfile.TemporaryDirectory() as work:
        for call in workloads.generate(workload, seed, work):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(call.args))
            one = hashlib.sha256()
            for part in (str(code), out.getvalue(), err.getvalue()):
                part = part.replace(work, "<work>").encode() + b"\0"
                h.update(part)
                one.update(part)
            args = [os.path.basename(a) if a.startswith(work) else a for a in call.args]
            size = len(out.getvalue().encode())
            lines.append(f"  {' '.join(args)}  exit {code}  stdout {size}  sha256 {one.hexdigest()}")
    return h.hexdigest(), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--calls", action="store_true", help="also print one line per call")
    args = parser.parse_args(argv)
    for seed in args.seed:
        for workload in args.workload or workloads.WORKLOADS:
            hexdigest, lines = digest(workload, seed)
            print(f"seed {seed} {workload:<9} {len(lines):3d} calls  sha256 {hexdigest}")
            if args.calls:
                print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
