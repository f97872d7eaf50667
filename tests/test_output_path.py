"""The CLI's one output path: ``main`` writes the handler's document and
picks the exit code, so every input leaves through the same three doors.

Exit 0 or 2 prints one canonical JSON line and nothing on stderr; exit
1 prints one line on stderr and nothing on stdout.  The Hypothesis test
takes a golden case, replaces one number in one of its input files with
nan, +-inf or +-1e308 and checks that contract; the structural test
deletes one key or item of an input file, or puts a value of the wrong
type in its place, and checks it again.  The option test puts drawn
text into the numeric options of a golden case: nan, infinities, zeros,
subnormals, values at and past the ends of the float range, integers
past int64, text that is no number, indices out of range and an anchor
index given twice.  A numpy warning would raise here (see
``filterwarnings`` in pyproject.toml) and fail the test, as would any
exception escaping ``main``.
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


#: text for the real options: nan, infinities, zeros, subnormals, the
#: ends of the float range and past them, integers past int64, no number
REALS = [
    "nan", "inf", "-inf", "0", "-0.0", "5e-324", "-2.2e-308", "1e308", "-1e308",
    "1e400", "-1e400", str(2**64), str(-(2**63) - 1), "0.5", "2", "1e", "x", "",
]
#: text for the counts and the grid denominator: small, negative, past
#: int64, and no integer; a count too large to form is refused at once
WHOLES = [
    "0", "-0", "1", "-1", "2", "5", "13", str(2**63), str(-(2**64)), "1.0", "1e400", "nan", "x", "",
]
#: text for the indices: the counts' and indices far out of range
INDICES = WHOLES + ["1000", str(10**30)]
#: the numeric options and what each reads; --p0 of homothet is a list
OPTIONS = {
    "--tol": REALS, "--radius": REALS, "--alpha": REALS, "--eps": REALS, "--t": REALS,
    "--p0": REALS, "--t0": INDICES, "--target": INDICES, "--report": INDICES,
    "--outcome": INDICES, "--outcomes": WHOLES, "--anchor": None, "--reports": None,
}


def _option_slots():
    """For each numeric option, (case, position of its value or None) for
    each golden case whose subcommand takes it: each occurrence in the
    case's arguments, or one appended when the case gives none."""
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    out = {option: [] for option in OPTIONS}
    for name, args in sorted(CASES.items()):
        for option, slots in out.items():
            if option not in commands[args[0]]._option_string_actions:
                continue
            given = [k + 1 for k, arg in enumerate(args) if arg == option]
            if option == "--reports":  # only a grid has a number
                given = [k for k in given if args[k].startswith("grid:")]
            slots += [(name, k) for k in given or [None]]
    return out


OPTION_SLOTS = _option_slots()


def _option_text(data, name, option, k):
    """Drawn text for ``option`` of case ``name``; an anchor's index may
    repeat another anchor's of the case."""
    args = CASES[name]
    if option == "--reports":
        return "grid:" + data.draw(st.sampled_from(WHOLES))
    if option == "--anchor":
        others = [a.split("=")[0] for j, a in enumerate(args) if j != k and args[j - 1] == option]
        index = data.draw(st.sampled_from(INDICES + others))
        return f"{index}={data.draw(st.sampled_from(REALS))}"
    if option == "--p0" and args[0] == "homothet":
        entries = data.draw(st.lists(st.sampled_from(REALS), min_size=1, max_size=3))
        return ",".join(entries)
    return data.draw(st.sampled_from(OPTIONS[option]))


def _with_option(name, k, text):
    """The argv of case ``name`` with ``text`` in option slot ``k``."""
    args = list(CASES[name])
    if k is None:
        args.append(text)
    else:
        args[k - 1 : k + 1] = [text]
    return [str(INPUTS / a) if (INPUTS / a).is_file() else a for a in args]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_an_option_value_at_an_edge_leaves_by_one_output(data):
    option = data.draw(st.sampled_from(list(OPTIONS)))
    name, k = data.draw(st.sampled_from(OPTION_SLOTS[option]))
    command = CASES[name][0]
    text = f"{option}={_option_text(data, name, option, k)}"  # "=" lets "-inf" through
    code, out, err = _run(_with_option(name, k, text))
    if code == 1 and err.startswith(f"elicit {command}: error: argument {option}:"):
        assert out == "" and err.endswith("\n") and err.count("\n") == 1  # argparse's refusal
    else:
        assert_one_output(code, out, err)


@pytest.mark.parametrize(
    "name, k, text",
    [  # every golden case whose output prints the value back, as 0
        ("level-convexity-pass", None, "--eps=-0.0"),
        ("level-convexity-fail", None, "--eps=-0.0"),
        ("myerson-pass", 3, "--t=-0.0"),
        ("rev-interval-pass", 3, "--anchor=0=-0.0"),
        ("rev-interval-three-pass", 3, "--anchor=0=-0.0"),
    ],
)
def test_a_negative_zero_option_leaves_by_one_output(name, k, text):
    assert_one_output(*_run(_with_option(name, k, text)))


def test_every_numeric_option_has_a_golden_case():
    assert all(OPTION_SLOTS.values())


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
