"""The statements of ``src/elicit`` that no golden call and no workload call runs.

    PYTHONPATH=src python tests/workload_coverage.py --seed 11 --seed 12

The script records, with the standard library's ``sys.settrace``, each
line of ``src/elicit`` that runs while it imports the package, runs every
golden case of ``tests/test_golden.py`` through ``elicit.cli.main`` and,
for each seed and each workload of ``perfbench.workloads``, runs every
call once through ``elicit.cli.main`` and once as the library call that
``perfbench.worker.lib_op`` builds.  It then prints, per module, how
many statements it has and how many of them never ran, and each
outermost statement that never ran: its lines and its first line of
source.  A statement is one of the module's syntax tree, docstrings
excepted.  A compound one (``if``, ``for``, ``class``, ...) ran when a
line of its header ran or a statement in its body did, and a function
when a statement in its body did, so a function that is defined but
never called is one entry.  A claim that a code
path serves no workload can so be measured.  The golden cases are read
from the source of ``tests/test_golden.py``, which is not imported.  It
reads ``perfbench`` and changes nothing in it; pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "elicit")
GOLDEN = os.path.join(ROOT, "tests", "golden")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]


def _tracer(ran: defaultdict):
    """A ``sys.settrace`` function that traces the frames of the package's
    code, and only those, adding each line that runs to ``ran[file]``."""

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if os.path.dirname(path) != PACKAGE:
            return None
        lines = ran[path]
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            lines.add(frame.f_lineno)
            return line

        return line

    return trace


def _golden_cases() -> dict:
    """``CASES`` of ``tests/test_golden.py``, a literal read from its source."""
    with open(os.path.join(ROOT, "tests", "test_golden.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CASES"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_golden.py has no CASES")


def _golden_argv(args) -> list:
    """A golden case's arguments, each naming an input file made its path."""
    paths = [os.path.join(GOLDEN, "inputs", a) for a in args]
    return [path if os.path.isfile(path) else a for a, path in zip(args, paths)]


def _quietly(call) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        call()


def run_calls(seeds, names) -> int:
    """Run the golden calls and every workload call; return how many ran."""
    from elicit import cli
    from perfbench import worker, workloads

    count = 0
    for args in _golden_cases().values():
        argv = _golden_argv(args)
        _quietly(lambda: cli.main(argv))
        count += 1
    for seed in seeds:
        for name in names or workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as work:
                for call in workloads.generate(name, seed, work):
                    _quietly(lambda: cli.main(list(call.args)))
                    try:
                        worker.lib_op(call)()
                    except worker.CERTIFIED:  # a certified negative is an answer
                        pass
                    count += 2
    return count


def _body(node) -> list:
    """The statements directly inside ``node``, docstrings excepted."""
    body = []
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, None) or []:
            body.extend(child.body if not isinstance(child, ast.stmt) else [child])
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        if ast.get_docstring(node, clean=False) is not None:
            body = body[1:]
    return body


def _header(node) -> range:
    """The lines of a statement itself, a compound one's without its body."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    inner = getattr(node, "body", None)
    last = max(first, inner[0].lineno - 1) if inner else node.end_lineno
    return range(first, last + 1)


def unrun(tree: ast.Module, ran: set) -> tuple:
    """(how many statements ``tree`` has, the outermost ones that never ran)."""

    def visit(node) -> tuple:  # (statements, outermost never run, whether it ran)
        count, missed, inside = 1, [], False
        for child in _body(node):
            c, m, r = visit(child)
            count, missed, inside = count + c, missed + m, inside or r
        called = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))  # its body, that is
        if inside or not called and any(line in ran for line in _header(node)):
            return count, missed, True
        return count, [node], False

    count, missed = 0, []
    for stmt in _body(tree):
        c, m, _ = visit(stmt)
        count, missed = count + c, missed + m
    return count, missed


def main(argv=None) -> int:
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    if "elicit" in sys.modules:  # its module code would run untraced
        raise SystemExit("the package was imported before tracing began")
    ran = defaultdict(set)
    sys.settrace(_tracer(ran))
    try:
        calls = run_calls(args.seed, args.workload)
    finally:
        sys.settrace(None)
    total = missing = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        count, missed = unrun(ast.parse(source), ran[path])
        total, missing = total + count, missing + len(missed)
        print(f"src/elicit/{name}: {count} statements, {len(missed)} not run")
        lines = source.splitlines()
        for node in missed:
            first, last = node.lineno, node.end_lineno
            span = f"{first}-{last}" if last > first else str(first)
            print(f"  {span:>9}  {lines[first - 1].strip()}")
    print(f"{calls} calls; {total} statements, {missing} outermost ones not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
