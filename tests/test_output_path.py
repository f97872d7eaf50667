"""The CLI's one output path: ``main`` writes the handler's document and
picks the exit code, so every input leaves through the same three doors.

Exit 0 or 2 prints one canonical JSON line and nothing on stderr; exit
1 prints one line on stderr and nothing on stdout.  The Hypothesis test
takes a golden case, replaces one number in one of its input files with
nan, +-inf or +-1e308 and checks that contract; the structural test
deletes one key or item of an input file, or puts a value of the wrong
type in its place, and checks it again.  A numpy warning would
raise here (see ``filterwarnings`` in pyproject.toml) and fail the test,
as would any exception escaping ``main``.
"""

import contextlib
import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import cli, jsonio
from test_golden import CASES, GOLDEN

INPUTS = GOLDEN / "inputs"
VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308]
#: values of the wrong type for almost every field, and a deletion
WRONG_TYPES = [None, "x", [], {}, [[]]]
DELETE = object()
STRUCTURAL_SAMPLE = 1500


def _leaves(obj, path=()):
    """The path of every number in a decoded JSON document."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield path
    elif isinstance(obj, list):
        for k, item in enumerate(obj):
            yield from _leaves(item, path + (k,))
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], path + (key,))


def _replace(obj, path, value):
    """``obj`` with the value at ``path`` replaced by ``value``, or deleted
    when ``value`` is ``DELETE``."""
    if not path:
        return value
    if len(path) == 1 and value is DELETE:
        del obj[path[0]]
    else:
        obj[path[0]] = _replace(obj[path[0]], path[1:], value)
    return obj


def _targets():
    """(case, argument index, the file's document, its number paths) for
    every argument of a golden case that names an input file with a number."""
    out = []
    for name, args in sorted(CASES.items()):
        for k, arg in enumerate(args):
            if (INPUTS / arg).is_file():
                doc = json.loads((INPUTS / arg).read_text(encoding="utf-8"))
                paths = list(_leaves(doc))
                if paths:
                    out.append((name, k, doc, paths))
    return out


TARGETS = _targets()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_output(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("elicit: error:") and err.count("\n") == 1
    else:
        assert err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        assert jsonio.dumps(json.loads(out)) + "\n" == out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_number_made_extreme_leaves_by_one_output(workdir, data):
    name, k, doc, paths = data.draw(st.sampled_from(TARGETS))
    path = data.draw(st.sampled_from(paths))
    value = data.draw(st.sampled_from(VALUES))
    args = CASES[name]
    mutant = workdir / args[k]
    mutant.write_text(json.dumps(_replace(json.loads(json.dumps(doc)), path, value)))
    argv = [str(INPUTS / a) if (INPUTS / a).is_file() else a for a in args]
    argv[k] = str(mutant)
    assert_one_output(*_run(argv))


def _nodes(obj, path=()):
    """The path of every value in a decoded JSON document, itself included."""
    yield path
    if isinstance(obj, list):
        for k, item in enumerate(obj):
            yield from _nodes(item, path + (k,))
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _nodes(obj[key], path + (key,))


def _structural_mutations():
    """(case, argument index, document, path, value) for every input file
    of every golden case, every path in it and every way to break it there."""
    out = []
    for name, args in sorted(CASES.items()):
        for k, arg in enumerate(args):
            if (INPUTS / arg).is_file():
                doc = json.loads((INPUTS / arg).read_text(encoding="utf-8"))
                for path in _nodes(doc):
                    for value in WRONG_TYPES + ([DELETE] if path else []):
                        out.append((name, k, doc, path, value))
    return out


def test_a_field_deleted_or_of_the_wrong_type_leaves_by_one_output(tmp_path):
    codes = set()
    mutations = random.Random(14).sample(_structural_mutations(), STRUCTURAL_SAMPLE)
    for name, k, doc, path, value in mutations:
        args = CASES[name]
        argv = [str(INPUTS / a) if (INPUTS / a).is_file() else a for a in args]
        argv[k] = str(tmp_path / args[k])
        (tmp_path / args[k]).write_text(json.dumps(_replace(json.loads(json.dumps(doc)), path, value)))
        code, out, err = _run(argv)
        assert_one_output(code, out, err)
        codes.add(code)
    assert codes == {0, 1, 2}  # some mutants are still valid inputs


def test_every_golden_case_has_a_number_to_replace():
    assert {name for name, *_ in TARGETS} == set(CASES) - {"make-score-brier", "make-score-log"}


def test_a_document_that_cannot_be_written_exits_1_with_empty_stdout(monkeypatch):
    # serializing happens inside main's error handling, so nothing of a
    # half-written document reaches stdout
    monkeypatch.setattr(cli.payments, "myerson_payment", lambda *a, **k: math.inf)
    code, out, err = _run(["myerson", str(INPUTS / "alloc-good.json"), "--t", "1"])
    assert (code, out, err) == (1, "", "elicit: error: cannot serialize inf\n")


@pytest.mark.parametrize(
    "doc,code",
    [
        ({"passed": True, "witnesses": []}, 0),
        ({"passed": False, "witnesses": []}, 2),
        ({"feasible": True}, 0),
        ({"feasible": False}, 2),
        ({"error": "NotMonotoneError", "message": "m"}, 2),
        ({"payment": 0.0}, 0),
    ],
)
def test_the_exit_code_follows_from_the_document(monkeypatch, doc, code):
    monkeypatch.setattr(cli, "_document", lambda args: doc)
    got = _run(["myerson", str(INPUTS / "alloc-good.json"), "--t", "1"])
    assert got == (code, jsonio.dumps(doc) + "\n", "")
