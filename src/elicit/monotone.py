"""Implementability checkers.

A family of linear functionals over a finite type space is a selection
of subgradients of some convex function exactly when it is cyclically
monotone, so each checker here either certifies the condition or
returns a concrete counterexample: a violating pair, a positive-weight
cycle, or a local truthfulness failure.  Weak and cyclic monotonicity
read one weight matrix, formed by one product in the layout of the
Bellman-Ford kernel (``_cmon_weights``), and so does
``properties.check_wmon_cells``, the weak check over labeled cells;
:func:`check_cmon` and the searches of ``payments`` hand it to the
kernel as it is (``_cmon_graph``), and :func:`cmon_weights` returns its
transpose.  The reversed graph, which ``payments.check_revenue_equivalence``
searches, is the graph of the swapped family, types and functionals
exchanged, up to a potential, so no array is transposed in place.
The weak checks and :func:`check_local_truthful` form their pair values
(w[i, j] + w[j, i], the larger gain of a pair, the distances) a block of
rows at a time over the pairs i < j, with ``core._scan_pairs``, so each
holds its one weight or payoff matrix and a few blocks.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import core
from .core import (
    DEFAULT_TOL,
    CheckReport,
    DimensionMismatchError,
    LinearFamily,
    ScoreTable,
    TypeSpace,
    WitnessColumns,
    _as_vector,
    _index,
    _indices,
    _numbers,
    _require_cells,
    _require_summable,
    _scan_pairs,
    deviation_gains,
    require_positive,
)

__all__ = [
    "cmon_weights",
    "longest_paths",
    "check_wmon",
    "check_cmon",
    "check_local_truthful",
]


def cmon_weights(ts: TypeSpace, fam: LinearFamily) -> np.ndarray:
    """Complete-digraph edge weights w[i, j] = d_i . (t_j - t_i).

    The transpose, a view, of the array ``_cmon_weights`` forms in the
    kernel's layout, so it holds the same floats as every cmon caller
    reads.  Finite types and functionals can still give weights, or sums
    of weights along a path or cycle of at most m edges, beyond the float
    range; those raise ``ValueError`` instead of a numpy warning, and so
    do more than ``core.MAX_MATRIX_CELLS`` weights, before any is formed."""
    fam.check_aligned(ts)
    return _cmon_weights(ts.points, fam.vectors).T


def _cmon_weights(points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The cmon weights of aligned arrays, whose points may repeat, in the
    layout :func:`longest_paths` reads: ``wt[v, u] = d_u . (t_v - t_u)``,
    the weight of edge u -> v, with a zero diagonal.  One product
    ``points @ vectors.T`` forms every cmon weight, and its diagonal is
    subtracted along the columns in place.  (``vectors @ points.T`` is
    not bitwise its transpose at every shape, so each caller reads this
    one.)

    The weights are scanned for overflow, a sum of m of them beyond the
    float range, only when the bound 4 m max|t| max_u ||d_u||_1 is not
    finite.  When it is, no such sum is: a product formed in any order,
    with or without fused multiply-adds, has |fl(d . t)| <= (1 +
    gamma_dim) ||d||_1 max|t| (Higham, *Accuracy and Stability*, 2nd ed.,
    section 3.1), with gamma_dim = dim u / (1 - dim u) < 1, and the
    subtraction at most doubles the larger of its terms, so m |w| <=
    (1 + gamma_dim) / 2 of the bound, a margin that rounding the bound
    in floats cannot use up.  Nor is a weight nan, as the inputs are
    then finite.  The scan raises the message it always did."""
    m = len(vectors)
    _require_cells(m, len(points), f"the cmon weights of {m} types")
    with np.errstate(over="ignore", invalid="ignore"):
        wt = points @ vectors.T
        wt -= wt.diagonal().copy()  # wt[v, u] -= d_u . t_u
        bound = 4.0 * m * np.abs(points).max(initial=0.0)
        bound *= np.abs(vectors).sum(axis=1).max(initial=0.0)
        if not bound < np.inf:
            _require_summable(wt, m, "cmon weights d_i . (t_j - t_i), summed over up to m edges,")
    return wt


class _Transposed(NamedTuple):
    """Weights in the layout :func:`longest_paths` reads, which takes them
    as they are, with no copy: ``wt[v, u]`` is the weight of edge u -> v,
    finite or ``-inf``, and the diagonal is ``-inf``.  ``_cmon_weights``
    forms the cmon weights in this layout.  The caller owns the array and
    may reuse it once the kernel has returned."""

    wt: np.ndarray


def _cmon_graph(points: np.ndarray, vectors: np.ndarray) -> _Transposed:
    """The one m x m array of ``check_cmon`` and of each search of
    ``payments``: ``_cmon_weights`` of aligned arrays, whose points may
    repeat, with a ``-inf`` diagonal; for ``ts.points`` and
    ``fam.vectors``, bitwise ``cmon_weights(ts, fam).T`` off it."""
    wt = _cmon_weights(points, vectors)
    np.fill_diagonal(wt, -np.inf)
    return _Transposed(wt)


#: The predecessor graph is first searched for cycles after this many
#: relaxation rounds, then after twice as many, and so on.  A failing
#: family usually closes a positive predecessor cycle within a round or
#: two, while passing families converge in a few to a few dozen rounds,
#: so earlier walks would mostly tax inputs that pass.
_FIRST_WALK = 8

#: A round adds the distances to the weight columns of the active nodes
#: only, those whose distance changed in the round before, when they are
#: at most a share (m - 64) / (m + 192) of the m nodes: none up to 64
#: nodes, a quarter at 160, a half at 320, two thirds at 640.  Gathering
#: the columns has a fixed cost, and a graph of up to a few hundred nodes
#: fits in cache, where adding the whole matrix is cheap per edge, so a
#: larger frontier takes the full round.  The forest pass of
#: :func:`longest_paths`, too, runs only on more than this many nodes:
#: on fewer, it costs more per round than the rounds it saves.
_GATHER_FROM = 64


@dataclass
class LongestPathResult:
    dist: np.ndarray
    pred: np.ndarray
    cycle: Optional[list]
    cycle_weight: float = 0.0
    rounds: int = 0
    edges_examined: int = 0


def longest_paths(
    weights: np.ndarray,
    source: Union[None, int, Mapping] = None,
    tol: float = DEFAULT_TOL,
) -> LongestPathResult:
    """Bellman-Ford longest paths on a complete digraph.

    ``weights[u, v]`` is the weight of edge u -> v: finite, or ``-inf``
    for no edge; a nan or ``+inf`` weight or a non-square matrix raises
    ``ValueError``.  The diagonal is ignored.  Relaxations must improve by
    more than an epsilon of ``tol / 4m`` so float noise cannot
    masquerade as a cycle.

    ``source`` gives the start distances, the weights of a virtual
    source's edges.  ``None`` starts every node at 0, which turns the run
    into a pure positive-cycle detector; a node s starts s alone, at 0;
    a mapping from nodes to finite values starts each listed node at its
    value, so ``dist[v]`` is the largest ``value[s] + path(s -> v)``,
    each sum begun at its start value: Rochet's least surplus through
    pinned values.  A node outside the graph, a value that is not finite
    and an empty mapping raise ``ValueError``.  A node whose distance
    never improves keeps predecessor -1, so the predecessor chain of a
    reached node ends at the listed node where its path starts, unless
    the chain closes a cycle.

    The kernel reads the weights transposed, ``wt[v, u] = weights[u, v]``
    with a ``-inf`` diagonal, from a copy it makes, so ``weights`` is left
    as it was.  Weights already in that layout, a ``_Transposed`` from
    ``_cmon_graph``, are read in place: the cmon callers (``check_cmon``
    and the searches of ``payments``) form each m x m array they search
    by one product in this layout, and the kernel adds none.

    Each round reads ``wt`` in the columns u of the active nodes only:
    those whose ``dist`` changed in the round before, and at the start
    every node of finite ``dist``: all of them with ``source=None``, else
    the source or the listed nodes.  It forms the candidates ``dist[u] +
    weights[u, v]`` a block of rows v at a time, in one buffer of
    ``core._BLOCK_CELLS`` floats or of one row if that is larger: it
    gathers the active columns into the buffer, or adds ``dist`` to every
    column when the frontier is too large to gather with profit (see
    ``_GATHER_FROM``).  The best predecessor of each node v is the first
    argmax along its row.  So beside ``wt`` the kernel holds that fixed
    block, and a graph whose m^2 cells fit in the block takes each round
    in one piece.

    On a graph of more than ``_GATHER_FROM`` nodes, each round is
    followed by a forest pass while the predecessor array has no cycle
    (:func:`_cycle_nodes`).  The pass pushes the round's gains down the
    predecessor forest, Tarjan's subtree idea: level by level from the
    improved nodes, each child v of a level takes ``dist[pred[v]] +
    weights[pred[v], v]`` where that exceeds ``dist[v] + eps``, and joins
    the improved nodes and the next level.  A round alone carries a gain
    one edge further, so on types along a line, where the longest path to
    a type runs through every smaller one, rounds alone take m - 1 rounds
    and about m^3 work; with the pass they take 14 to 18 at m = 500 to
    2000.  Each sum is formed as a round forms it, one edge weight added
    to the parent's distance, so a distance is still the sequential sum
    along its final path; but the pass changes what later rounds see, so
    near-ties can resolve to another path than rounds alone would take,
    and distances can differ from theirs in the last bits.  Graphs of at
    most 64 nodes run rounds alone: there the pass costs more than the
    rounds it saves.

    A row sees the same candidates in the same order in any block, and
    the frontier rounds give the same improved nodes, distances and
    predecessors as rounds over every edge followed by the same forest
    passes, bit for bit.  An edge u -> v out of an inactive node offers
    ``-inf`` while ``dist[u]`` is ``-inf``; otherwise it was read in the
    round after ``dist[u]`` last changed, in a round or in the pass after
    it, which left ``dist[v] + eps`` at least ``dist[u] +
    weights[u, v]``.  As ``dist[v]`` never decreases, the edge neither
    improves v nor ties the best candidate of a v that improves.  The
    active nodes stay in index order, so ties go to the same first
    predecessor.
    ``edges_examined`` counts m times the columns read, over every round
    and the final scan: a work count that repeats exactly.

    A positive cycle usually shows up early as a cycle of the
    predecessor array.  That array is walked in the first round that
    leaves a cycle in it, while the forest pass runs, which then stops
    for the rest of the run; and after rounds 8, 16, 32, ... (at most
    m - 1), the only walks on graphs of at most 64 nodes.  The first
    predecessor cycle whose exact weight exceeds ``tol`` ends the run.
    Cycles are tried in order of their smallest node, so the witness is
    the first one found on that schedule, not a minimal one.  If no walk
    finds one, the final scan after m - 1 rounds takes each edge that
    still relaxes and returns the first cycle behind it, read off the
    predecessors, that weighs more than ``tol``.  A cycle of weight above
    ``tol`` always leaves such an edge, but when lighter cycles of higher
    mean weight dominate the relaxation, every cycle read off can weigh
    ``tol`` or less, and no cycle is reported.  ``rounds`` counts the
    relaxation rounds run, the last one included when it improves
    nothing; it does not count the scan.
    """
    require_positive(tol)
    laid_out = isinstance(weights, _Transposed)
    wt = weights.wt if laid_out else _numbers(weights, "weights")
    if wt.ndim != 2 or wt.shape[0] != wt.shape[1]:
        raise ValueError(f"weights must be a square matrix, got shape {wt.shape}")
    m = wt.shape[0]
    dist = _start(source, m)
    if not laid_out:
        weights, wt = wt, wt.T.copy()
        np.fill_diagonal(wt, -np.inf)
        if not wt.max(initial=-np.inf) < np.inf:  # one pass finds a nan or +inf
            v, u = np.argwhere(~(wt < np.inf))[0]
            weight = weights[u, v]
            raise ValueError(f"edge ({u}, {v}) weighs {weight}; weights must be finite or -inf")
    eps = tol / max(1, 4 * m)
    pred = np.full(m, -1, dtype=int)
    if m == 0:
        return LongestPathResult(dist, pred, None)

    nodes = np.arange(m)
    buf = np.empty(max(m, min(m * m, core._BLOCK_CELLS)))  # a block, or one row
    full = buf[: m * m].reshape(m, m) if m * m <= len(buf) else None
    most = m * (m - _GATHER_FROM) // (m + 3 * _GATHER_FROM)  # largest frontier gathered
    improved = dist > -np.inf  # the first round reads every node of finite dist
    forest = m > _GATHER_FROM
    rounds = edges = 0
    while True:
        if most > 0 and np.count_nonzero(improved) <= most:
            active = np.flatnonzero(improved)
            k = len(active)
            top = dist[active]
        else:  # a large frontier reads every column
            active, k, top = None, m, dist
        step = max(1, core._BLOCK_CELLS // k)  # rows of wt per block
        if step >= m:  # one block holds the round: no slices, no copies
            cand = full if active is None else buf[: m * k].reshape(m, k)
            best, arg = _relax(wt, top, active, cand, nodes)
        else:
            best = np.empty(m)
            arg = np.empty(m, dtype=np.intp)
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                cand = buf[: (hi - lo) * k].reshape(hi - lo, k)
                best[lo:hi], arg[lo:hi] = _relax(wt[lo:hi], top, active, cand, nodes[: hi - lo])
        edges += m * k
        improved = best > dist + eps  # best and arg are read only where it holds
        if rounds == m - 1:
            break  # this pass is the final scan
        rounds += 1
        if not improved.any():
            return LongestPathResult(dist, pred, None, rounds=rounds, edges_examined=edges)
        pred[improved] = arg[improved]
        dist[improved] = best[improved]
        walk = rounds >= _FIRST_WALK and rounds & (rounds - 1) == 0
        if forest:  # until the predecessors first close a cycle, walked at once
            forest = not _cycle_nodes(pred).size
            walk = not forest
            if forest:
                _descend(wt, dist, pred, improved, eps)
        if walk:
            for cycle in _pred_cycles(pred):
                w = _cycle_weight(wt.T, cycle)
                if w > tol:
                    return LongestPathResult(dist, pred, cycle, w, rounds, edges)

    # an edge that still relaxes after m-1 rounds implies a positive cycle
    for v in np.flatnonzero(improved):
        cycle = _extract_cycle(pred, int(arg[v]), int(v), m)
        if cycle is None:
            continue
        w = _cycle_weight(wt.T, cycle)
        if w > tol:
            return LongestPathResult(dist, pred, cycle, w, rounds, edges)
    return LongestPathResult(dist, pred, None, rounds=rounds, edges_examined=edges)


def _start(source, m: int) -> np.ndarray:
    """The start distances that ``source`` stands for in
    :func:`longest_paths` over ``m`` nodes, ``-inf`` at the nodes it
    does not start."""
    if source is None:
        return np.zeros(m)
    dist = np.full(m, -np.inf)
    if isinstance(source, Mapping):
        if not source:
            raise ValueError("source must map at least one node to its start value")
        nodes = _indices(list(source), "source node", m)
        dist[nodes] = _as_vector(list(source.values()), "source values")
    else:
        dist[_index(source, m, "source")] = 0.0
    return dist


def _relax(wt_rows, top, active, cand, nodes):
    """For each row v of ``wt_rows``, a block of rows of ``wt``, the best
    candidate ``dist[u] + wt_rows[v, u]`` over the columns u of
    ``active`` in index order (every column if None) and its first
    argmax u.  ``top`` holds those columns' distances, ``cand`` takes the
    candidates, and ``nodes`` is ``arange(len(wt_rows))``."""
    if active is None:
        np.add(wt_rows, top, out=cand)  # cand[v, u] = dist[u] + weights[u, v]
    else:
        np.take(wt_rows, active, axis=1, out=cand, mode="clip")  # "raise" would buffer
        cand += top
    col = cand.argmax(axis=1)
    return cand[nodes, col], (col if active is None else active[col])


def _descend(wt, dist, pred, improved, eps) -> None:
    """The forest pass of :func:`longest_paths` over an acyclic ``pred``,
    in place on ``dist`` and ``improved``; each level reads the distances
    its parents had before it."""
    tree = np.flatnonzero(pred >= 0)
    up = pred[tree]
    edge = wt[tree, up]  # the weight of the edge up -> tree
    level = improved
    while True:
        below = level[up]
        kids = tree[below]
        if not kids.size:
            return
        cand = dist[up[below]] + edge[below]
        gain = cand > dist[kids] + eps
        kids = kids[gain]
        dist[kids] = cand[gain]
        improved[kids] = True
        level = np.zeros(len(dist), dtype=bool)
        level[kids] = True


def _cycle_nodes(pred: np.ndarray) -> np.ndarray:
    """The nodes on cycles of the predecessor array, in increasing order.

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
    return np.flatnonzero(on_cycle[:m])


def _pred_cycles(pred: np.ndarray) -> Iterator[list]:
    """Yield every cycle of the predecessor array along its edges,
    starting from its smallest node, in increasing order of that node."""
    back = pred.tolist()
    seen = set()
    for s in _cycle_nodes(pred).tolist():
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
    fam.check_aligned(ts)
    return _wmon_report(_cmon_weights(ts.points, fam.vectors), tol, "weak monotonicity violated")


def _wmon_report(w: np.ndarray, tol: float, detail, labels=None) -> CheckReport:
    """Weak monotonicity on the weights ``w``, in either layout (the cmon
    callers pass ``_cmon_weights``): the pairs i < j (of different
    ``labels``, if given) whose w[i, j] + w[j, i] exceeds ``tol``, a sum
    that adds the same two floats in both.  With ``labels`` the witness
    ``detail`` is a %-template of the pair's two labels."""

    def block(lo, hi):
        pair = w[lo:hi, lo:] + w[lo:, lo:hi].T
        return pair, None if labels is None else labels[lo:hi, None] != labels[lo:]

    scan = _scan_pairs(w.shape, block, tol, upper=True)
    if labels is not None:
        detail = (detail, (labels[scan.rows], labels[scan.cols]))
    pair = np.column_stack((scan.rows, scan.cols))
    return CheckReport(WitnessColumns([("pair", pair, scan.values, detail)]), {"tol": tol})


def check_cmon(ts: TypeSpace, fam: LinearFamily, tol: float = DEFAULT_TOL) -> CheckReport:
    """Cyclic monotonicity via positive-cycle detection.

    Builds the complete digraph with weights d_t(t'-t) and looks for a
    positive-weight cycle; the witness, when one exists, is the cycle
    with its total weight.  ``info['rounds']`` is the number of
    Bellman-Ford relaxation rounds run (see :func:`longest_paths`).
    """
    require_positive(tol)
    fam.check_aligned(ts)
    res = longest_paths(_cmon_graph(ts.points, fam.vectors), source=None, tol=tol)
    info = {"tol": tol, "rounds": res.rounds}
    if res.cycle is None:
        return CheckReport(WitnessColumns(), info)
    cycle = ("cycle", np.array([res.cycle]), np.array([res.cycle_weight]), "positive-weight cycle")
    return CheckReport(WitnessColumns([cycle]), info)


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
    report_of = _indices(report_of, "report_of", len(score))
    if len(report_of) != len(ts):
        raise DimensionMismatchError("report_of must cover every type")
    m = len(ts)
    offered = score.payoff_matrix(ts)  # offered[j, i]: type j's report at type i
    if len(score) != m or not np.array_equal(report_of, np.arange(m)):
        offered = offered[report_of]  # a copy, unless each type sends its own report
    # gains[j, i]: what type i gains by sending type j's report
    gains = deviation_gains(offered, np.arange(m), axis=0, out=offered)
    points = ts.points

    def block(lo, hi):
        # the larger of the two gains of each pair i < j: type j's by
        # sending i's report and type i's by sending j's, the latter on ties
        by_i, by_j = gains[lo:hi, lo:], gains[lo:, lo:hi].T
        return np.where(by_i > by_j, by_i, by_j), _gaps(points, lo, hi) <= radius

    scan = _scan_pairs((m, m), block, tol, upper=True)
    pair = np.column_stack((scan.rows, scan.cols))
    witnesses = WitnessColumns([("pair", pair, scan.values, "misreport gains within pair")])
    local_passed = not witnesses
    global_passed = not scan.best > tol
    info = {
        "tol": tol,
        "radius": radius,
        "checked_pairs": scan.kept,
        "global_passed": global_passed,
        "agrees": local_passed == global_passed,
    }
    return CheckReport(witnesses, info)


def _gaps(points: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The distances from the points lo:hi to the points lo:, their
    squared differences summed one coordinate at a time, in order, in
    every dimension: the sum a loop over the coordinates forms."""
    m, dim = points.shape
    gaps = np.zeros((hi - lo, m - lo))
    with np.errstate(over="ignore"):
        for k in range(dim):
            diff = points[lo:hi, k, None] - points[lo:, k]
            diff *= diff
            gaps += diff
        np.sqrt(gaps, out=gaps)
        # the sum of squares overflows long before the distance does
        wide = gaps == np.inf
        if wide.any():
            i, j = np.nonzero(wide)
            gaps[wide] = np.hypot.reduce(points[lo + i] - points[lo + j], axis=-1)
    return gaps
