"""Golden CLI output: stdout and exit code of every subcommand, byte for byte.

Each case runs ``cli.main`` in process on the inputs under
``tests/golden/inputs`` and compares its stdout with
``tests/golden/expected/<case>.stdout`` and its exit code with
``tests/golden/expected/exit_codes.json``.  Every verifier has a failing
case, so certificates are printed and checked too.

The expected files are written by ``python tests/test_golden.py`` (run
from the repository root with ``src`` on ``PYTHONPATH``).  Rewrite them
only for a documented change of the output, never to make this test pass.
"""

import contextlib
import io
import json
import pathlib
import re

import pytest

from elicit import cli, jsonio
from elicit.monotone import cmon_weights
from helpers import full_rounds_longest_paths

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"

# name -> argv; an argument naming a file under inputs/ is made absolute
CASES = {
    "check-wmon-pass": ["check-wmon", "family-good.json"],
    "check-wmon-fail": ["check-wmon", "family-bad.json"],
    "check-wmon-rotation": ["check-wmon", "family-rotation.json"],
    "check-cmon-pass": ["check-cmon", "family-good.json"],
    "check-cmon-fail": ["check-cmon", "family-bad.json"],
    "check-cmon-rotation": ["check-cmon", "family-rotation.json"],
    "synth-payments-pass": ["synth-payments", "family-good.json", "--t0", "3"],
    "synth-payments-fail": ["synth-payments", "family-bad.json"],
    "rev-interval-pass": [
        "rev-interval", "family-good.json", "--anchor", "0=0", "--anchor",
        "2=0.1", "--target", "4",
    ],
    "rev-interval-fail": [
        "rev-interval", "family-good.json", "--anchor", "0=0", "--anchor",
        "1=5", "--target", "4",
    ],
    "rev-interval-three-pass": [
        "rev-interval", "family-good.json", "--anchor", "0=0.3", "--anchor",
        "2=1.2", "--anchor", "4=0.1", "--target", "1",
    ],
    "rev-interval-three-fail": [
        "rev-interval", "family-good.json", "--anchor", "0=0", "--anchor",
        "3=0", "--anchor", "2=5", "--target", "4",
    ],
    "rev-interval-cycle": [
        "rev-interval", "family-bad.json", "--anchor", "0=0", "--target", "1",
    ],
    "myerson-pass": ["myerson", "alloc-good.json", "--t", "2.2", "--p0", "0.1"],
    "myerson-fail": ["myerson", "alloc-bad.json", "--t", "1.5"],
    "make-score-brier": [
        "make-score", "--g", "brier", "--reports", "grid:4", "--outcomes", "3",
    ],
    "make-score-log": [
        "make-score", "--g", "log", "--reports", "grid:3", "--outcomes", "3",
    ],
    "make-score-file": [
        "make-score", "--g", "squarednorm.json", "--reports", "reports-2.json",
    ],
    "score-finite": ["score", "table-log.json", "--report", "2", "--outcome", "2"],
    "score-minus-inf": ["score", "table-log.json", "--report", "0", "--outcome", "1"],
    "check-proper-pass": ["check-proper", "table-log.json", "--strict"],
    "check-proper-strict-fail": ["check-proper", "table-strict.json", "--strict"],
    "check-proper-fail": ["check-proper", "table-linear.json"],
    "check-proper-beliefs": ["check-proper", "table-log.json", "beliefs.json"],
    "check-truthful-pass": ["check-truthful", "score-good.json"],
    "check-truthful-fail": ["check-truthful", "score-bad.json"],
    "check-local-pass": ["check-local", "score-good.json", "--radius", "0.6"],
    "check-local-fail": ["check-local", "score-local.json", "--radius", "0.6"],
    "check-local-report-of": ["check-local", "score-report-of.json", "--radius", "2"],
    "decision-score-pass": ["decision-score", "decision-good.json"],
    "decision-score-fail": ["decision-score", "decision-bad.json"],
    "power-label": ["power-label", "diagram.json", "points.json"],
    "fit-weights-pass": ["fit-weights", "sites.json", "sample-feasible.json"],
    "fit-weights-fail": ["fit-weights", "sites.json", "sample-cycle.json"],
    "homothet": ["homothet", "diagram.json", "--alpha", "2.5", "--p0", "0.5,-1"],
    "homothet-bad-scale": ["homothet", "diagram.json", "--alpha", "-1"],
    "level-convexity-pass": ["level-convexity", "sample-convex.json"],
    "level-convexity-fail": ["level-convexity", "sample-sandwich.json"],
    "breg2power-plane": [
        "breg2power", "squarednorm.json", "sites-plane.json", "--grid", "grid-plane.json",
    ],
    "breg2power-simplex": [
        "breg2power", "negentropy.json", "sites-simplex.json", "--grid", "grid-simplex.json",
    ],
    "breg2power-sites": ["breg2power", "maxaffine.json", "sites-plane.json"],
    "duality-check-negentropy": ["duality-check", "negentropy.json", "grids-negentropy.json"],
    "duality-check-maxaffine": ["duality-check", "maxaffine-1d.json", "grids-maxaffine.json"],
    "game-negentropy": ["game", "negentropy.json", "grids-negentropy.json"],
    "game-maxaffine": ["game", "maxaffine-1d.json", "grids-maxaffine.json"],
    "usage-not-an-object": ["check-truthful", "list-top.json"],
}


def _argv(args):
    inputs = GOLDEN / "inputs"
    return [str(inputs / a) if (inputs / a).is_file() else a for a in args]


def _run(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(_argv(CASES[name]))
    return code, out.getvalue()


def _exit_codes():
    return json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))


def test_every_subcommand_has_a_case():
    commands = {args[0] for args in CASES.values()}
    assert commands == set(cli._build_parser()._subparsers._group_actions[0].choices)


def test_expected_files_cover_exactly_the_cases():
    assert set(_exit_codes()) == set(CASES)
    assert {p.stem for p in EXPECTED.glob("*.stdout")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = _run(name)
    expected = (EXPECTED / f"{name}.stdout").read_bytes().decode("utf-8")
    assert code == _exit_codes()[name]
    assert out == expected


@pytest.mark.parametrize("name", ["rev-interval-three-pass", "rev-interval-three-fail"])
def test_three_anchor_intervals_recheck_from_the_inputs(name):
    """The three-anchor cases re-derived from the family file with one
    full-rounds search per anchor and one from the target: the endpoints
    are max_s(a_s + d_s(t)) and min_s(a_s - d_t(s)), and a failure names
    the first anchor in the given order whose path bound max_s(a_s +
    d_s(s2)) is above its value, that bound, and an anchor that forces it."""
    args = CASES[name]
    pinned = (args[k + 1].split("=") for k, a in enumerate(args) if a == "--anchor")
    anchors = {int(i): float(v) for i, v in pinned}
    target = int(args[args.index("--target") + 1])
    ts, fam = jsonio.load_family_file(json.loads((GOLDEN / "inputs" / args[1]).read_text()))
    weights = cmon_weights(ts, fam)
    d = {s: full_rounds_longest_paths(weights, s)[0] for s in [*anchors, target]}
    out = json.loads((EXPECTED / f"{name}.stdout").read_text(encoding="utf-8"))
    bounds = {s2: max(a + d[s][s2] for s, a in anchors.items()) for s2 in anchors}
    late = [s2 for s2, a in anchors.items() if bounds[s2] > a + 1e-9]
    if "error" not in out:
        assert not late
        lower = max(a + d[s][target] for s, a in anchors.items())
        upper = min(a - d[target][s] for s, a in anchors.items())
        assert (out["lower"], out["upper"]) == pytest.approx((lower, upper), abs=1e-12)
        return
    pattern = r"anchor (\d+)=(\S+) below path bound (\S+) forced by anchor (\d+)=(\S+)"
    s2, a2, bound, s, a = re.fullmatch(pattern, out["message"]).groups()
    s2, s = int(s2), int(s)
    assert late and s2 == late[0] and s != s2
    assert (float(a2), float(a)) == (anchors[s2], anchors[s])
    assert float(bound) == pytest.approx(bounds[s2], rel=1e-5)
    assert anchors[s] + d[s][s2] == pytest.approx(bounds[s2], abs=1e-12)


def _write_expected():
    EXPECTED.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        codes[name], out = _run(name)
        (EXPECTED / f"{name}.stdout").write_bytes(out.encode("utf-8"))
    (EXPECTED / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    _write_expected()
