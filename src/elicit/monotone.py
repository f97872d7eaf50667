"""Implementability checkers.

A family of linear functionals over a finite type space is a selection
of subgradients of some convex function exactly when it is cyclically
monotone, so each checker here either certifies the condition or
returns a concrete counterexample: a violating pair, a positive-weight
cycle, a nonzero triangle circulation, or a local truthfulness failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    CheckReport,
    DimensionMismatchError,
    EvaluationError,
    LinearFamily,
    ScoreTable,
    TypeSpace,
    Witness,
    mask_witnesses,
    require_positive,
)

__all__ = [
    "CheckReport",
    "Witness",
    "cmon_weights",
    "longest_paths",
    "check_wmon",
    "check_cmon",
    "check_path_independence",
    "check_local_truthful",
]


def cmon_weights(ts: TypeSpace, fam: LinearFamily) -> np.ndarray:
    """Complete-digraph edge weights w[i, j] = d_i . (t_j - t_i).

    Finite types and functionals can still give weights, or sums of
    weights along a path or cycle of at most m edges, beyond the float
    range; those raise ``ValueError`` instead of a numpy warning."""
    fam.check_aligned(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = fam.vectors @ ts.points.T
        w = inner - np.diag(inner)[:, None]
        # nan when a weight is nan; +inf when a sum of m weights could overflow
        bound = len(w) * np.maximum(w.max(initial=0.0), -w.min(initial=0.0))
    if not bound < np.inf:
        raise ValueError(
            "cmon weights d_i . (t_j - t_i), summed over up to m edges, overflow the float range"
        )
    return w


#: The predecessor graph is first searched for cycles after this many
#: relaxation rounds, then after twice as many, and so on.  A failing
#: family usually closes a positive predecessor cycle within a round or
#: two, while passing families converge in a few to a few dozen rounds,
#: so earlier walks would mostly tax inputs that pass.
_FIRST_WALK = 8


@dataclass
class LongestPathResult:
    dist: np.ndarray
    pred: np.ndarray
    cycle: Optional[list]
    cycle_weight: float = 0.0
    rounds: int = 0


def longest_paths(
    weights: np.ndarray,
    source: Optional[int] = None,
    tol: float = DEFAULT_TOL,
) -> LongestPathResult:
    """Bellman-Ford longest paths on a complete digraph.

    ``weights[u, v]`` is the weight of edge u -> v: finite, or ``-inf``
    for no edge; a nan or ``+inf`` weight, a non-square matrix or a
    source that is not a node raises ``ValueError``.  The diagonal is
    ignored.  ``source=None`` uses a virtual source connected to every
    node with weight 0, which turns the run into a pure positive-cycle
    detector.  Relaxations must improve by more than an epsilon of
    ``tol / 4m`` so float noise cannot masquerade as a cycle.  Each
    round reads the weights transposed, ``wt[v, u] = weights[u, v]``, so
    the best predecessor of every node is one argmax along a contiguous
    row of a buffer filled in place.

    A positive cycle usually shows up early as a cycle of the
    predecessor array, so that array is walked after rounds 8, 16, 32,
    ... (at most m - 1); the first predecessor cycle whose exact weight
    exceeds ``tol`` ends the run.  Cycles are tried in order of their
    smallest node, so the witness is the first one found on that
    schedule, not a minimal one.  If no walk finds one, the final scan
    after m - 1 rounds takes each edge that still relaxes and returns the
    first cycle behind it, read off the predecessors, that weighs more
    than ``tol``.  A cycle of weight above ``tol`` always leaves such an
    edge, but when lighter cycles of higher mean weight dominate the
    relaxation, every cycle read off can weigh ``tol`` or less, and no
    cycle is reported.  ``rounds`` counts the relaxation rounds run, the
    last one included when it improves nothing; it does not count the
    scan.
    """
    require_positive(tol)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError(f"weights must be a square matrix, got shape {weights.shape}")
    m = weights.shape[0]
    if source is not None and not (isinstance(source, (int, np.integer)) and 0 <= source < m):
        raise ValueError(f"source must be a node index in [0, {m}), got {source!r}")
    wt = weights.T.copy()
    np.fill_diagonal(wt, -np.inf)
    if not wt.max(initial=-np.inf) < np.inf:  # one pass finds a nan or +inf
        v, u = np.argwhere(~(wt < np.inf))[0]
        raise ValueError(f"edge ({u}, {v}) weighs {weights[u, v]}; weights must be finite or -inf")
    eps = tol / max(1, 4 * m)
    if source is None:
        dist = np.zeros(m)
    else:
        dist = np.full(m, -np.inf)
        dist[source] = 0.0
    pred = np.full(m, -1, dtype=int)
    if m == 0:
        return LongestPathResult(dist, pred, None)

    nodes = np.arange(m)
    cand = np.empty_like(wt)
    arg = np.empty(m, dtype=np.intp)
    rounds = 0
    while True:
        np.add(wt, dist, out=cand)  # cand[v, u] = dist[u] + weights[u, v]
        cand.argmax(axis=1, out=arg)
        best = cand[nodes, arg]
        improved = best > dist + eps
        if rounds == m - 1:
            break  # this pass is the final scan
        rounds += 1
        if not improved.any():
            return LongestPathResult(dist, pred, None, rounds=rounds)
        pred[improved] = arg[improved]
        dist[improved] = best[improved]
        if rounds >= _FIRST_WALK and rounds & (rounds - 1) == 0:
            for cycle in _pred_cycles(pred):
                w = _cycle_weight(weights, cycle)
                if w > tol:
                    return LongestPathResult(dist, pred, cycle, w, rounds)

    # an edge that still relaxes after m-1 rounds implies a positive cycle
    for v in np.flatnonzero(improved):
        cycle = _extract_cycle(pred, int(arg[v]), int(v), m)
        if cycle is None:
            continue
        w = _cycle_weight(weights, cycle)
        if w > tol:
            return LongestPathResult(dist, pred, cycle, w, rounds)
    return LongestPathResult(dist, pred, None, rounds=rounds)


def _pred_cycles(pred: np.ndarray) -> Iterator[list]:
    """Yield every cycle of the predecessor array along its edges,
    starting from its smallest node, in increasing order of that node.

    Each node has at most one predecessor (-1 for none), so following
    predecessors m times from any node ends on a cycle or at a root;
    pointer doubling takes those m steps for all nodes at once in
    log2(m) array lookups, and the nodes it lands on are the cycle nodes.
    """
    m = len(pred)
    hop = np.append(np.where(pred < 0, m, pred), m)  # m: absorbing root
    for _ in range(m.bit_length()):  # 2**bit_length > m steps
        hop = hop[hop]
    on_cycle = np.zeros(m + 1, dtype=bool)
    on_cycle[hop] = True
    back = pred.tolist()
    seen = set()
    for s in np.flatnonzero(on_cycle[:m]).tolist():
        if s in seen:
            continue
        walk = [s]
        x = back[s]
        while x != s:
            walk.append(x)
            x = back[x]
        seen.update(walk)
        yield [s] + walk[:0:-1]  # the walk runs against the edges


def _extract_cycle(pred: np.ndarray, u: int, v: int, m: int) -> Optional[list]:
    """Walk predecessors from a relaxable edge (u, v) until a node repeats."""
    trail = {v: 0}
    order = [v]
    x = u
    for _ in range(2 * m):
        if x < 0:
            return None
        if x in trail:
            cycle = order[trail[x]:]
            cycle.reverse()  # pred-walk is backwards along edges
            return cycle
        trail[x] = len(order)
        order.append(x)
        x = int(pred[x])
    return None


def _cycle_weight(weights: np.ndarray, cycle: Sequence[int]) -> float:
    total = 0.0
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        total += float(weights[a, b])
    return total


def check_wmon(ts: TypeSpace, fam: LinearFamily, tol: float = DEFAULT_TOL) -> CheckReport:
    """Weak monotonicity: d_t(t'-t) + d_{t'}(t-t') <= tol per pair."""
    require_positive(tol)
    w = cmon_weights(ts, fam)
    pair = w + w.T
    witnesses = mask_witnesses(
        "pair", np.triu(pair > tol, 1), pair, "weak monotonicity violated"
    )
    return CheckReport.from_witnesses(witnesses, {"tol": tol})


def check_cmon(ts: TypeSpace, fam: LinearFamily, tol: float = DEFAULT_TOL) -> CheckReport:
    """Cyclic monotonicity via positive-cycle detection.

    Builds the complete digraph with weights d_t(t'-t) and looks for a
    positive-weight cycle; the witness, when one exists, is the cycle
    with its total weight.  ``info['rounds']`` is the number of
    Bellman-Ford relaxation rounds run (see :func:`longest_paths`).
    """
    require_positive(tol)
    w = cmon_weights(ts, fam)
    res = longest_paths(w, source=None, tol=tol)
    info = {"tol": tol, "rounds": res.rounds}
    if res.cycle is None:
        return CheckReport.from_witnesses([], info)
    witness = Witness(
        kind="cycle",
        indices=tuple(res.cycle),
        slack=res.cycle_weight,
        detail="positive-weight cycle",
    )
    return CheckReport.from_witnesses([witness], info)


def _edge_integral(
    fam_fn: Callable, x: np.ndarray, y: np.ndarray, samples: int
) -> float:
    """Composite trapezoid of tau -> d_{x+tau(y-x)} . (y-x) over [0, 1]."""
    direction = y - x
    taus = np.linspace(0.0, 1.0, samples)
    vals = np.empty(samples)
    for k, tau in enumerate(taus):
        point = x + tau * direction
        try:
            d = np.atleast_1d(np.asarray(fam_fn(point), dtype=float))
        except Exception as exc:  # caller-supplied callable
            raise EvaluationError(f"family callable failed at {point}: {exc}") from exc
        if d.shape != direction.shape:
            raise DimensionMismatchError(
                f"family callable returned shape {d.shape}, expected {direction.shape}"
            )
        vals[k] = float(d @ direction)
    h = 1.0 / (samples - 1)
    return float(h * (vals.sum() - 0.5 * (vals[0] + vals[-1])))


def check_path_independence(
    fam_fn: Callable,
    triangle: Sequence,
    samples: int = 101,
    tol_integral: float = 1e-6,
) -> CheckReport:
    """Closed-loop line integral around one triangle, trapezoid rule.

    The loop sum of a selection of subgradients vanishes; a rotational
    (vortex) component shows up as nonzero circulation.  A coarse
    re-integration (roughly half the nodes) estimates the
    discretization error, which is reported and added to the tolerance.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in triangle]
    if len(pts) != 3:
        raise ValueError("triangle must consist of three points")
    edges = [(pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[0])]
    circulation = sum(_edge_integral(fam_fn, x, y, samples) for x, y in edges)
    coarse_n = max(2, (samples + 1) // 2)
    coarse = sum(_edge_integral(fam_fn, x, y, coarse_n) for x, y in edges)
    allowance = abs(circulation - coarse)
    tol_effective = tol_integral + allowance
    info = {
        "circulation": circulation,
        "allowance": allowance,
        "tol_effective": tol_effective,
    }
    if abs(circulation) <= tol_effective:
        return CheckReport.from_witnesses([], info)
    witness = Witness(
        kind="loop",
        indices=(0, 1, 2),
        slack=abs(circulation),
        detail="nonzero circulation around triangle",
    )
    return CheckReport.from_witnesses([witness], info)


def check_local_truthful(
    score: ScoreTable,
    ts: TypeSpace,
    report_of: Sequence[int],
    radius: float,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Weak local truthfulness: both misreport inequalities restricted to
    pairs within ``radius`` of each other.

    The report also runs the unrestricted check and records whether the
    local and global verdicts agree (``info['agrees']``).
    """
    require_positive(tol)
    require_positive(radius, "radius")
    report_of = np.asarray(list(report_of), dtype=int)
    if len(report_of) != len(ts):
        raise DimensionMismatchError("report_of must cover every type")
    if report_of.min() < 0 or report_of.max() >= len(score):
        raise ValueError("report_of refers to a report outside the table")
    values = score.payoff_matrix(ts)
    # gain[i, j]: what type i gains by sending type j's report
    offered = values[report_of]
    own = np.diag(offered)
    if not np.all(np.isfinite(own)):
        raise ValueError("truthful reports must score finite values")
    gain = offered.T - own[:, None]
    worst = np.where(gain.T > gain, gain.T, gain)
    gaps = np.linalg.norm(
        ts.points[:, None, :] - ts.points[None, :, :], axis=-1
    )
    local = np.triu(gaps <= radius, 1)
    violated = np.triu(worst > tol, 1)
    witnesses = mask_witnesses(
        "pair", local & violated, worst, "misreport gains within pair"
    )
    local_passed = not witnesses
    global_passed = not violated.any()
    info = {
        "tol": tol,
        "radius": radius,
        "checked_pairs": int(local.sum()),
        "global_passed": global_passed,
        "agrees": local_passed == global_passed,
    }
    return CheckReport.from_witnesses(witnesses, info)
