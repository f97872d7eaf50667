"""Output checks for one CLI call, recomputed from the input files alone.

A call is correct when it exits with its expected code, writes nothing
that looks like a traceback to stderr, and writes exactly one JSON
document to stdout whose claims hold: a passing verdict agrees with the
exit code, a constructed object has the property it promises, and the
first witness of a negative verdict is recomputed from the inputs and
shown to exceed the tolerance.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Optional

import numpy as np

from .workloads import N_OUTCOMES, RADIUS, Call, power_costs, simplex_lattice

#: The CLI's default tolerance, restated so the checks do not import it.
TOL = 1e-9
#: Agreement between a recomputed quantity and the one the program printed.
AGREE = 1e-7


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _ext(x) -> float:
    return -math.inf if x == "-inf" else float(x)


class Inputs:
    """Decoded input files, read once per path."""

    def __init__(self):
        self._cache: Dict[str, dict] = {}

    def __call__(self, path: str):
        if path not in self._cache:
            with open(path, encoding="utf-8") as fh:
                self._cache[path] = json.load(fh)
        return self._cache[path]


def check_call(call: Call, code: int, out: str, err: str, inputs: Inputs) -> Optional[str]:
    """None if the call's result is correct, else a one-line reason."""
    try:
        _check(call, code, out, err, inputs)
    except CheckFailed as exc:
        return f"{call.command}: {exc}"
    return None


def _check(call: Call, code: int, out: str, err: str, inputs: Inputs) -> None:
    _require(code == call.expect, f"exit {code}, expected {call.expect}: {err.strip()[:200]}")
    _require("Traceback" not in err, "traceback on stderr")
    _require(out.endswith("\n") and out.count("\n") == 1, "stdout is not one line")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "stdout is not a JSON object")
    if "passed" in doc:
        _require(doc["passed"] == (code == 0), "passed disagrees with the exit code")
        _require(doc["passed"] == (not doc["witnesses"]), "passed disagrees with witnesses")
    if call.command in CHECKS:
        CHECKS[call.command](call, doc, inputs)


# ---------------------------------------------------------------------------
# mechanism design


def _family(inputs: Inputs, path: str):
    obj = inputs(path)
    return np.asarray(obj["typeSpace"]["points"]), np.asarray(obj["family"])


def _score(inputs: Inputs, path: str):
    obj = inputs(path)
    s = obj["score"]
    return (
        np.asarray(obj["typeSpace"]["points"]),
        np.asarray(s["linear"]),
        np.asarray([_ext(c) for c in s["constant"]]),
    )


def _cycle_weight(types, fam, cycle) -> float:
    nxt = list(cycle[1:]) + [cycle[0]]
    return float(sum(fam[a] @ (types[b] - types[a]) for a, b in zip(cycle, nxt)))


def _first(doc: dict, kind: str) -> dict:
    _require(bool(doc.get("witnesses")), "negative verdict without a witness")
    w = doc["witnesses"][0]
    _require(w["kind"] == kind, f"first witness is {w['kind']!r}, expected {kind!r}")
    return w


def _agree(value: float, printed: float, what: str) -> None:
    _require(value > TOL, f"recomputed {what} {value:.3g} is within tolerance")
    _require(abs(value - printed) <= AGREE * max(1.0, abs(value)), f"{what} does not re-check")


def _check_wmon(call, doc, inputs):
    if call.expect == 0:
        return
    types, fam = _family(inputs, call.args[1])
    w = _first(doc, "pair")
    i, j = w["indices"]
    _agree(float((fam[i] - fam[j]) @ (types[j] - types[i])), w["slack"], "pair slack")


def _check_cmon(call, doc, inputs):
    if call.expect == 0:
        return
    types, fam = _family(inputs, call.args[1])
    w = _first(doc, "cycle")
    _agree(_cycle_weight(types, fam, w["indices"]), w["slack"], "cycle weight")


def _check_cycle_error(call, doc, inputs):
    """A refuted family: the error payload carries a positive cycle."""
    _require(doc.get("error") == "NotImplementableError", f"unexpected payload {sorted(doc)}")
    types, fam = _family(inputs, call.args[1])
    _agree(_cycle_weight(types, fam, doc["cycle"]), doc["weight"], "cycle weight")


def _check_synth(call, doc, inputs):
    if call.expect != 0:
        return _check_cycle_error(call, doc, inputs)
    types, fam = _family(inputs, call.args[1])
    score = doc["score"]
    linear = np.asarray(score["linear"])
    constant = np.asarray([_ext(c) for c in score["constant"]])
    _require(np.array_equal(linear, fam), "synthesized score changes the allocation")
    _require(doc["surplus"][doc["baseType"]] == 0.0, "surplus is not pinned at the base type")
    values = linear @ types.T + constant[:, None]
    gains = values - np.diag(values)[None, :]
    _require(float(gains.max()) <= TOL, "synthesized score is not truthful")


def _check_rev_interval(call, doc, inputs):
    if call.expect != 0:
        return _check_cycle_error(call, doc, inputs)
    _require(doc["lower"] <= doc["upper"] + TOL, "empty surplus interval")
    t = call.truth
    _require(doc["lower"] - AGREE <= t <= doc["upper"] + AGREE, "interval misses the true surplus")


def _check_truthful(call, doc, inputs):
    if call.expect == 0:
        return
    types, linear, constant = _score(inputs, call.args[1])
    w = _first(doc, "deviation")
    i, r = w["indices"]
    t = types[i]
    _agree(float(linear[r] @ t + constant[r] - (linear[i] @ t + constant[i])), w["slack"], "gain")


def _check_local(call, doc, inputs):
    if call.expect == 0:
        return
    types, linear, constant = _score(inputs, call.args[1])
    w = _first(doc, "pair")
    i, j = w["indices"]
    _require(float(np.linalg.norm(types[i] - types[j])) <= RADIUS, "pair outside the radius")
    v = lambda r, t: float(linear[r] @ types[t] + constant[r])  # noqa: E731
    gain = max(v(j, i) - v(i, i), v(i, j) - v(j, j))
    _agree(gain, w["slack"], "local gain")


# ---------------------------------------------------------------------------
# scoring rules and the convex engine


def _expected(belief: np.ndarray, payoff: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):  # 0 * -inf counts as 0
        terms = np.where(belief > 0, belief * payoff, 0.0)
    return float(terms.sum())


def _check_proper(call, doc, inputs):
    if call.expect == 0:
        return
    table = inputs(call.args[1])
    reports = np.asarray(table["reports"])
    payoffs = np.asarray([[_ext(x) for x in row] for row in table["payoffs"]])
    w = _first(doc, "deviation")
    truth, q = w["indices"]
    p = reports[truth]
    _agree(_expected(p, payoffs[q]) - _expected(p, payoffs[truth]), w["slack"], "deviation gain")


def _lattice(spec: str) -> np.ndarray:
    return simplex_lattice(N_OUTCOMES, int(spec.split(":", 1)[1]))


def _negentropy(points: np.ndarray) -> np.ndarray:
    safe = np.where(points > 0, points, 1.0)
    return (points * np.log(safe)).sum(axis=1)


def _grid_conjugate(duals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return (duals @ grid.T - _negentropy(grid)[None, :]).max(axis=1)


def _check_make_score(call, doc, inputs):
    reports = np.asarray(doc["reports"])
    _require(np.allclose(reports, _lattice(call.args[4]), rtol=0, atol=1e-12), "wrong report grid")
    payoffs = np.asarray([[_ext(x) for x in row] for row in doc["payoffs"]])
    with np.errstate(divide="ignore"):
        logs = np.log(reports)
    finite = np.isfinite(logs)
    _require(np.array_equal(finite, np.isfinite(payoffs)), "-inf payoffs off the boundary")
    _require(np.allclose(payoffs[finite], logs[finite], rtol=0, atol=AGREE), "not the log score")


def _grids(inputs: Inputs, path: str):
    obj = inputs(path)
    return np.asarray(obj["typeSpace"]["points"]), np.asarray(obj["duals"])


def _check_game(call, doc, inputs):
    grid, duals = _grids(inputs, call.args[2])
    eqs = doc["equilibria"]
    # each dual is the gradient at an interior grid point, which is its partner
    _require(len(eqs) >= len(duals), f"{len(eqs)} equilibria for {len(duals)} duals")
    conj = _grid_conjugate(duals, grid)
    g = _negentropy(grid)
    for e in (eqs[0], eqs[-1]):
        j, i = e["dIndex"], e["tIndex"]
        gap = g[i] + conj[j] - float(grid[i] @ duals[j])
        _require(abs(gap) <= 1e-6, "equilibrium breaks Fenchel-Young equality")


def _check_breg2power(call, doc, inputs):
    sites = np.asarray(inputs(call.args[2])["sites"])
    grid = np.asarray(inputs(call.args[4])["points"])
    d = 1.0 + np.log(sites)
    weights = np.einsum("ij,ij->i", d, d) / 4.0 - _grid_conjugate(d, grid)
    _require(np.allclose(doc["sites"], d / 2.0, rtol=0, atol=AGREE), "wrong power sites")
    _require(np.allclose(doc["weights"], weights, rtol=0, atol=AGREE), "wrong power weights")


def _check_power_label(call, doc, inputs):
    diag = inputs(call.args[1])
    points = np.asarray(inputs(call.args[2])["points"])
    costs = power_costs(np.asarray(diag["sites"]), np.asarray(diag["weights"]), points)
    labels = np.asarray(doc["labels"])
    own = costs[np.arange(len(points)), labels]
    _require(bool((own <= costs.min(axis=1) + AGREE).all()), "a point is not in its labelled cell")


def _check_fit_weights(call, doc, inputs):
    _require(doc["feasible"], "weights for a true power diagram were not found")
    sites = np.asarray(inputs(call.args[1])["sites"])
    sample = inputs(call.args[2])
    points, labels = np.asarray(sample["points"]), np.asarray(sample["labels"])
    costs = power_costs(sites, np.asarray(doc["weights"]), points)
    own = costs[np.arange(len(points)), labels]
    _require(bool((own <= costs.min(axis=1) + AGREE).all()), "fitted weights miss a label")


#: Checks beyond the common ones; a passing verifier (exit 0 with
#: ``passed`` true and no witness) needs none.
CHECKS = {
    "check-wmon": _check_wmon,
    "check-cmon": _check_cmon,
    "synth-payments": _check_synth,
    "rev-interval": _check_rev_interval,
    "check-truthful": _check_truthful,
    "check-local": _check_local,
    "check-proper": _check_proper,
    "make-score": _check_make_score,
    "game": _check_game,
    "breg2power": _check_breg2power,
    "power-label": _check_power_label,
    "fit-weights": _check_fit_weights,
}
