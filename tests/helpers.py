"""Shared test oracles: brute-force and finite-difference reference
implementations kept independent of the library code paths they check."""

from __future__ import annotations

import json
import math
from itertools import combinations, permutations
from typing import Optional

import numpy as np

from elicit import (
    CheckReport,
    DimensionMismatchError,
    DomainError,
    ElicitError,
    InconsistentAnchorsError,
    LinearFamily,
    MaxAffine,
    NegEntropy,
    NotImplementableError,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    UnreachableActionError,
    Witness,
    eval_convex,
    subgradient,
)
from elicit.core import DEFAULT_TOL, INTERIOR_EPS, SIMPLEX_TOL, _gain_scan, require_positive
from elicit.jsonio import dumps
from elicit.monotone import (
    _FIRST_WALK,
    _GATHER_FROM,
    LongestPathResult,
    _cycle_weight,
    _extract_cycle,
    _pred_cycles,
    cmon_weights,
    longest_paths,
)
from elicit.scoring import _as_distribution


def central_diff_grad(f, t, h=1e-6):
    """Central finite-difference gradient, one coordinate at a time."""
    t = np.asarray(t, dtype=float)
    grad = np.empty_like(t)
    for k in range(len(t)):
        e = np.zeros_like(t)
        e[k] = h
        grad[k] = (f(t + e) - f(t - e)) / (2 * h)
    return grad


def brute_force_cmon(ts: TypeSpace, fam: LinearFamily, tol=1e-9):
    """Enumerate every simple cycle and return (passed, worst_weight).

    Cycles are subsets with all cyclic orders, first element pinned to
    kill rotations.  Exponential; intended for <= 6 types.
    """
    pts = ts.points
    vecs = fam.vectors
    m = len(pts)
    w = (pts @ vecs.T).T - np.einsum("ij,ij->i", vecs, pts)[:, None]  # d_a . (t_b - t_a)
    worst = -np.inf
    for size in range(2, m + 1):
        for subset in combinations(range(m), size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cycle = (first,) + rest
                total = sum(
                    w[a, b] for a, b in zip(cycle, cycle[1:] + (first,))
                )
                worst = max(worst, total)
    return worst <= tol, worst


def tangent_max_affine(curve_grad, curve_val, anchors) -> MaxAffine:
    """Max-affine under-approximation of a convex function from tangents
    taken at the anchor points."""
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim == 1:
        anchors = anchors.reshape(-1, 1)
    slopes = np.vstack([np.atleast_1d(curve_grad(a)) for a in anchors])
    intercepts = np.array(
        [curve_val(a) - slopes[i] @ a for i, a in enumerate(anchors)]
    )
    return MaxAffine(slopes=slopes, intercepts=intercepts)


def random_max_affine(rng, dim, max_pieces=8, scale=2.0) -> MaxAffine:
    k = int(rng.integers(1, max_pieces + 1))
    return MaxAffine(
        slopes=rng.uniform(-scale, scale, size=(k, dim)),
        intercepts=rng.uniform(-scale, scale, size=k),
    )


def random_typespace(rng, dim, max_points=50, scale=2.0) -> TypeSpace:
    m = int(rng.integers(2, max_points + 1))
    pts = rng.uniform(-scale, scale, size=(m, dim))
    # exact duplicates are astronomically unlikely but cheap to rule out
    _, idx = np.unique(pts, axis=0, return_index=True)
    return TypeSpace(pts[np.sort(idx)])


def kl_divergence(p, q):
    """sum_i p_i ln(p_i / q_i) with 0 ln 0 = 0; q must be interior."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def bregman_matrix(g, points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """D[k, j] = G(t_k) - G(s_j) - <t_k - s_j, dG(s_j)>, the Bregman
    divergence of point row t_k from site row s_j: G on the rows in one
    call, and one subgradient per site."""
    slopes = np.array([subgradient(g, s) for s in sites])
    gaps = np.vecdot(points[:, None] - sites, slopes)
    return eval_convex(g, points)[:, None] - eval_convex(g, sites) - gaps


# ---------------------------------------------------------------------------
# loop references for the verifiers that build witnesses from masks: the
# same checks written as explicit pair and triple loops, witness by witness


def loop_require_distinct(rows, what):
    """The row loop ``core._require_distinct`` had: a set of each row's
    bytes, -0.0 read as 0.0."""
    seen = set()
    for i, row in enumerate(rows + 0.0):  # + 0.0 turns -0.0 into 0.0
        key = row.tobytes()
        if key in seen:
            raise ValueError(f"duplicate {what} at index {i}")
        seen.add(key)


def loop_check_wmon(ts, fam, tol):
    w = cmon_weights(ts, fam)
    out = []
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            slack = w[i, j] + w[j, i]
            if slack > tol:
                out.append(Witness("pair", (i, j), float(slack), "weak monotonicity violated"))
    return CheckReport(out, {"tol": tol})


def loop_check_subgradient_selection(g, fam, ts, tol):
    """The truthfulness loop on the tangent score: report i scores
    d_i . t + G(t_i) - d_i . t_i, and (i, j) is type j's gain from it."""
    inner = fam.vectors @ ts.points.T  # inner[i, j] = d_i . t_j, as payoff_matrix takes it
    constant = [loop_eval_convex(g, t) - float(d @ t) for d, t in zip(fam.vectors, ts.points)]
    out = []
    for i in range(len(ts)):
        for j in range(len(ts)):
            slack = (inner[i, j] + constant[i]) - (inner[j, j] + constant[j])
            if i != j and slack > tol:
                out.append(
                    Witness("pair", (i, j), float(slack), "subgradient inequality violated")
                )
    return CheckReport(out, {"tol": tol})


def loop_check_truthful(score, ts, tol):
    values = score.payoff_matrix(ts)
    m = len(ts)
    out = []
    for r in range(m):
        for i in range(m):
            gain = values[r, i] - values[i, i]
            if r != i and gain > tol:
                out.append(
                    Witness("deviation", (i, r), float(gain), f"type {i} prefers report {r}")
                )
    gains = values - np.diag(values)[None, :]
    best = max((gains[r, i] for r in range(m) for i in range(m) if r != i), default=-np.inf)
    min_slack = 0.0 if m == 1 else None if best == -np.inf else float(-best)
    return CheckReport(out, {"tol": tol, "min_slack": min_slack})


def swapped_cmon_weights(ts, fam):
    """w'[u, v] = t_u . (d_v - d_u), the cmon weights of the swapped
    family, types ``fam.vectors`` (which may repeat) and functionals
    ``ts.points``: one product less its diagonal, as ``cmon_weights``
    forms the family's own."""
    inner = fam.vectors @ ts.points.T  # inner[v, u] = d_v . t_u
    return (inner - np.diag(inner)).T


def loop_check_revenue_equivalence(ts, fam, t0, tol, paths=None):
    """The target loop ``check_revenue_equivalence`` had, on the library's
    longest paths (the families here are implementable).  ``paths``, when
    given, stands for the two path arrays from t0: on the family's graph,
    and on the swapped family's, whose path t0 -> x weighs phi(x) - phi(t0)
    more than the path x -> t0 it reverses, phi(x) = <t_x, d_x>."""
    if paths is None:
        graphs = (cmon_weights(ts, fam), swapped_cmon_weights(ts, fam))
        paths = [longest_paths(w, source=t0, tol=tol).dist for w in graphs]
    fwd, swapped = paths
    phi = np.einsum("ij,ij->i", fam.vectors, ts.points)
    witnesses = []
    for target in range(len(ts)):
        if target == t0:
            continue
        lower = fwd[target]
        upper = (phi[target] - phi[t0]) - swapped[target]  # minus the longest path target -> t0
        width = float(upper - lower)
        if width > tol:
            witnesses.append(
                Witness("target", (target,), width, f"surplus interval [{lower:.6g}, {upper:.6g}]")
            )
    return CheckReport(witnesses, {"tol": tol, "base_type": t0})


# ---------------------------------------------------------------------------
# the callers of the Bellman-Ford kernel as they were written on the public
# ``longest_paths(cmon_weights(ts, fam), ...)``: each search on weights
# formed for it alone, which the kernel copies transposed


def _separate_paths(ts, fam, source, tol, swapped=False):
    weights = swapped_cmon_weights(ts, fam) if swapped else cmon_weights(ts, fam)
    res = longest_paths(weights, source=source, tol=tol)
    if res.cycle is not None:
        raise NotImplementableError(res.cycle, res.cycle_weight)
    return res.dist


def separate_check_cmon(ts, fam, tol):
    require_positive(tol)
    res = longest_paths(cmon_weights(ts, fam), source=None, tol=tol)
    info = {"tol": tol, "rounds": res.rounds}
    if res.cycle is None:
        return CheckReport([], info)
    witness = Witness("cycle", tuple(res.cycle), res.cycle_weight, "positive-weight cycle")
    return CheckReport([witness], info)


def separate_rochet_payments(ts, fam, t0, tol):
    """(surplus, payments) of ``rochet_payments``, whose post-check forms
    its own payoff matrix."""
    require_positive(tol)
    fam.check_aligned(ts)
    if not 0 <= t0 < len(ts):
        raise ValueError(f"base type must be in [0, {len(ts)}), got {t0}")
    surplus = _separate_paths(ts, fam, t0, tol)
    payments = np.einsum("ij,ij->i", fam.vectors, ts.points) - surplus
    score = ScoreTable(list(range(len(ts))), fam.vectors.copy(), -payments)
    worst = _gain_scan(score, ts, tol).best
    if worst > tol:
        raise ElicitError(f"internal error: synthesized score violates truthfulness by {worst:.3g}")
    return surplus, payments


def separate_revenue_interval(ts, fam, anchors, target, tol):
    """(lower, upper) of ``revenue_interval`` on valid anchors and target:
    one search from every anchor at its value, an inconsistent anchor
    named with the anchor at the root of its predecessor chain, and one
    search from the target."""
    require_positive(tol)
    least = longest_paths(cmon_weights(ts, fam), source=anchors, tol=tol)
    if least.cycle is not None:
        raise NotImplementableError(least.cycle, least.cycle_weight)
    for s2, vs2 in anchors.items():
        bound = least.dist[s2]
        if bound > vs2 + tol:
            chain, x = [s2], int(least.pred[s2])
            while x >= 0 and len(chain) <= len(ts):
                chain.append(x)
                x = int(least.pred[x])
            s = [a for a in chain if a in anchors][-1]
            raise InconsistentAnchorsError(
                f"anchor {s2}={vs2:.6g} below path bound "
                f"{bound:.6g} forced by anchor {s}={anchors[s]:.6g}"
            )
    if target in anchors:
        return anchors[target], anchors[target]
    from_target = _separate_paths(ts, fam, target, tol)
    upper = min(v - from_target[s] for s, v in anchors.items())
    return float(least.dist[target]), float(upper)


def separate_check_revenue_equivalence(ts, fam, t0, tol):
    require_positive(tol)
    if not 0 <= t0 < len(ts):
        raise ValueError(f"base type must be in [0, {len(ts)}), got {t0}")
    fwd = _separate_paths(ts, fam, t0, tol)
    swapped = _separate_paths(ts, fam, t0, tol, swapped=True)
    return loop_check_revenue_equivalence(ts, fam, t0, tol, (fwd, swapped))


def loop_check_local_truthful(score, ts, report_of, radius, tol):
    values = score.payoff_matrix(ts)
    report_of = list(report_of)
    m = len(ts)
    points = ts.points.tolist()
    local, found, global_passed = 0, [], True
    for i in range(m):
        for j in range(i + 1, m):
            ri, rj = report_of[i], report_of[j]
            worst = max(values[rj, i] - values[ri, i], values[ri, j] - values[rj, j])
            square = 0.0  # the squared differences summed in coordinate order
            for a, b in zip(points[i], points[j]):
                square += (a - b) * (a - b)
            is_local = math.sqrt(square) <= radius
            local += bool(is_local)
            if worst > tol:
                global_passed = False
                if is_local:
                    found.append(
                        Witness("pair", (i, j), float(worst), "misreport gains within pair")
                    )
    info = {
        "tol": tol,
        "radius": radius,
        "checked_pairs": local,
        "global_passed": global_passed,
        "agrees": (not found) == global_passed,
    }
    return CheckReport(found, info)


def loop_check_wmon_cells(sites, sample, tol):
    """The weak-monotonicity loop on p_label, over pairs of different labels."""
    pts, labels = sample.points, sample.labels
    site_of = np.asarray(sites, dtype=float)[labels]
    inner = pts @ site_of.T  # inner[b, a] = t_b . p_la, the one product of the cmon weights
    out = []
    for a in range(len(sample)):
        for b in range(a + 1, len(sample)):
            la, lb = int(labels[a]), int(labels[b])
            slack = (inner[a, b] - inner[b, b]) + (inner[b, a] - inner[a, a])
            if la != lb and slack > tol:
                out.append(
                    Witness("pair", (a, b), float(slack), f"labels ({la}, {lb}) break monotonicity")
                )
    return CheckReport(out, {"tol": tol})


def loop_check_expert_separation(table, p_in, p_bar, delta_accept, delta_reject, tol):
    """The belief loop of ``check_expert_separation``."""
    beliefs = [np.asarray(p, dtype=float) for p in list(p_in) + [p_bar]]
    best = [max(loop_expected_score(table, q, b) for q in range(len(table))) for b in beliefs]
    values, v_bar = best[:-1], best[-1]
    out = []
    for i, value in enumerate(values):
        if value < delta_accept - tol:
            detail = f"value {value:.6g} below accept threshold"
            out.append(Witness("informed", (i,), float(delta_accept - value), detail))
    if v_bar > delta_reject + tol:
        detail = f"uninformed value {v_bar:.6g} above reject threshold"
        out.append(Witness("uninformed", (-1,), float(v_bar - delta_reject), detail))
    info = {"values_in": values, "value_bar": v_bar, "tol": tol}
    return CheckReport(out, info)


def loop_check_level_set_convexity(sample, eps):
    pts, labels = sample.points, sample.labels
    k = len(sample)
    out = []
    for a in range(k):
        for b in range(a + 1, k):
            seg = pts[b] - pts[a]
            seg_sq = float(seg @ seg)
            if labels[a] != labels[b] or seg_sq == 0.0:
                continue
            for c in range(k):
                rel = pts[c] - pts[a]
                tau = float(rel @ seg) / seg_sq
                if labels[c] == labels[a] or not 0.0 < tau < 1.0:
                    continue
                if min(np.linalg.norm(rel), np.linalg.norm(pts[c] - pts[b])) <= eps:
                    continue
                perp = rel - tau * seg
                dist = float(np.sqrt(perp @ perp))
                if dist <= eps:
                    detail = (
                        f"label {int(labels[c])} point between two "
                        f"label {int(labels[a])} points"
                    )
                    out.append(Witness("sandwich", (a, b, c), float(eps - dist), detail))
    return CheckReport(out, {"eps": eps})


def loop_expected_score(table, q, belief) -> float:
    """Expected score of report q, one outcome at a time with the
    ``ext_mul`` rules; the first -inf term makes the score -inf."""
    total = 0.0
    for prob, payoff in zip(belief.tolist(), table.payoffs[q].tolist()):
        void = prob == 0.0 or (payoff == -math.inf and -SIMPLEX_TOL <= prob < 0.0)
        term = 0.0 if void else prob * payoff
        if term == -math.inf:
            return -math.inf
        total += term
    return total


def loop_find_report(table, p) -> Optional[int]:
    """The first report row within SIMPLEX_TOL of ``p`` in max norm."""
    for i, r in enumerate(table.reports.tolist()):
        if max(abs(a - b) for a, b in zip(r, p)) <= SIMPLEX_TOL:
            return i
    return None


def loop_simplex_grid(n_outcomes: int, denominator: int) -> np.ndarray:
    """Every row of counts summing to ``denominator``, built by recursion
    over the outcomes in lexicographic order, over ``denominator``."""
    rows = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for head in range(remaining + 1):
            fill(prefix + [head], remaining - head, slots - 1)

    fill([], denominator, n_outcomes)
    return np.asarray(rows, dtype=float) / denominator


def loop_check_proper(table, beliefs, strict, tol):
    if beliefs is None:
        rows = [(i, table.reports[i]) for i in range(len(table))]
    else:
        rows = [(loop_find_report(table, b), np.asarray(b, dtype=float)) for b in beliefs]
    out = []
    for bi, (truth, belief) in enumerate(rows):
        s_truth = loop_expected_score(table, truth, belief)
        for q in range(len(table)):
            if q == truth:
                continue
            gain = loop_expected_score(table, q, belief) - s_truth
            if gain > tol:
                out.append(
                    Witness("deviation", (truth, q), float(gain), f"belief #{bi} prefers report {q}")
                )
            elif strict and gain >= -tol:
                if np.max(np.abs(table.reports[q] - belief)) > tol:
                    out.append(
                        Witness(
                            "tie", (truth, q), float(max(gain, 0.0)),
                            "strictness fails: deviation ties",
                        )
                    )
    return CheckReport(out, {"tol": tol, "strict": strict})


def loop_duality_witnesses(g, grid, duals, tol, shift=0.0):
    """Witness list of ``check_duality_identities`` with each conjugate
    lowered by ``shift`` (its ``info`` is left to the library's own tests)."""
    duals = np.asarray(duals, dtype=float).reshape(len(duals), -1)
    evals = [loop_eval_convex(g, t) for t in grid.points]
    conjs = [loop_conjugate(g, d, grid) - shift for d in duals]
    inner = duals @ grid.points.T  # inner[j, i] = <d_j, t_i>
    out = []
    for i in range(len(grid)):
        for j in range(len(duals)):
            slack = -(conjs[j] + evals[i] - inner[j, i])
            if slack > tol:
                out.append(Witness("fenchel-young", (i, j), float(slack), "G(t) + G*(d) < <t, d>"))
    return out


# ---------------------------------------------------------------------------
# loop references for the batched conjugate: G at one point at a time, and
# the grid conjugate of one dual vector at a time, each evaluating G again


def _loop_check_simplex(t) -> None:
    # written as "not on", so that a nan coordinate is off the simplex
    if not (np.all(t >= -SIMPLEX_TOL) and abs(float(t.sum()) - 1.0) <= SIMPLEX_TOL):
        raise DomainError(
            f"point {t.tolist()} is not on the probability simplex (tolerance {SIMPLEX_TOL})"
        )


def loop_eval_convex(g, t) -> float:
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if isinstance(g, MaxAffine):
        if g.dim != len(t):
            raise DimensionMismatchError(f"expected dimension {g.dim}, got {len(t)}")
        return float(np.max(g.slopes @ t + g.intercepts))
    if isinstance(g, SquaredNorm):
        return float(t @ t)
    if isinstance(g, NegEntropy):
        _loop_check_simplex(t)
        pos = t[t > 0.0]
        return float(np.sum(pos * np.log(pos)))
    raise TypeError(f"unknown convex spec {type(g).__name__}")


def loop_conjugate(g, d, grid) -> float:
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.all(np.isfinite(d)):
        raise ValueError(f"dual vector must be finite, got {d[~np.isfinite(d)][0]}")
    if len(d) != grid.dim:
        raise DimensionMismatchError("dual vector dimension != grid dimension")
    values = grid.points @ d - np.array([loop_eval_convex(g, v) for v in grid.points])
    best = float(np.max(values))
    if isinstance(g, MaxAffine) and grid.dim == 1:
        lo, hi = float(grid.points.min()), float(grid.points.max())
        a, b = g.slopes[:, 0], g.intercepts
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                if a[i] != a[j]:
                    x = (b[j] - b[i]) / (a[i] - a[j])
                    if lo <= x <= hi:
                        cand = d[0] * x - loop_eval_convex(g, [x])
                        if cand > best:
                            best = float(cand)
    if isinstance(g, SquaredNorm):
        half = d / 2.0
        lo = grid.points.min(axis=0)
        hi = grid.points.max(axis=0)
        if np.all(half >= lo - 1e-12) and np.all(half <= hi + 1e-12):
            return float(half @ half)
    return best


# ---------------------------------------------------------------------------
# loop references for the batched subgradients: one subgradient per point,
# and the four constructors built one report (or site) at a time on it


def loop_subgradient(g, t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if isinstance(g, MaxAffine):
        if g.dim != len(t):
            raise DimensionMismatchError(f"expected dimension {g.dim}, got {len(t)}")
        return g.slopes[int(np.argmax(g.slopes @ t + g.intercepts))].copy()
    if isinstance(g, SquaredNorm):
        return 2.0 * t
    if isinstance(g, NegEntropy):
        _loop_check_simplex(t)
        if np.any(t < INTERIOR_EPS):
            raise DomainError(
                "negative entropy has no finite subgradient on the simplex "
                f"boundary (coordinates must be >= {INTERIOR_EPS})"
            )
        return 1.0 + np.log(t)
    raise TypeError(f"unknown convex spec {type(g).__name__}")


def loop_make_scoring_rule(g, reports):
    """``(reports, payoffs)`` of ``make_scoring_rule``."""
    rows = [_as_distribution(p, "report") for p in reports]
    if not rows:
        raise ValueError("at least one report is required")
    n = len(rows[0])
    payoffs = np.empty((len(rows), n))
    for k, p in enumerate(rows):
        if len(p) != n:
            raise DimensionMismatchError("all reports must share one outcome space")
        if isinstance(g, NegEntropy) and np.any(p < INTERIOR_EPS):
            with np.errstate(divide="ignore"):
                payoffs[k] = np.log(np.maximum(p, 0.0))
            continue
        d = loop_subgradient(g, p)
        payoffs[k] = loop_eval_convex(g, p) + d - float(d @ p)
    return np.vstack(rows), payoffs


def loop_make_direct_score(g, ts):
    """``(linear, constant)`` of ``make_direct_score``."""
    linear = np.empty((len(ts), ts.dim))
    constant = np.empty(len(ts))
    for i, t in enumerate(ts.points):
        d = loop_subgradient(g, t)
        linear[i] = d
        constant[i] = loop_eval_convex(g, t) - float(d @ t)
    return linear, constant


def loop_make_decision_score(g, decisions, reports, tol):
    """``(scores, unconstrained)`` of ``make_decision_score`` for report
    matrices and decision rows already validated."""
    n_actions, n_outcomes = reports[0].shape
    scores = np.zeros((len(reports), n_actions, n_outcomes))
    unconstrained = []
    for k, q in enumerate(reports):
        flat = q.reshape(-1)
        gq = loop_eval_convex(g, flat)
        d = loop_subgradient(g, flat).reshape(n_actions, n_outcomes)
        base = gq - float(np.sum(d * q))
        dead = []
        for i in range(n_actions):
            di = float(decisions[k][i])
            if di <= INTERIOR_EPS:
                if np.max(np.abs(d[i])) > tol:
                    raise UnreachableActionError(
                        f"report {k}: subgradient is nonzero on action {i} "
                        f"which the decision rule never takes"
                    )
                dead.append(i)
                continue
            scores[k, i] = base + d[i] / di
        unconstrained.append(dead)
    return scores, unconstrained


def loop_expected_value(spec, k, belief_matrix) -> float:
    """``DecisionScoreSpec.expected_value``, one action at a time."""
    total = 0.0
    for i in range(spec.n_actions):
        di = float(spec.decisions[k, i])
        if di != 0.0:
            total += di * float(belief_matrix[i] @ spec.scores[k, i])
    return total


def loop_bregman_to_power(g, sites):
    """``(sites, weights)`` of the power diagram ``bregman_to_power``
    builds, one site t at a time: d / 2 and ||d||^2 / 4 + G(t) - <d, t>
    for d = dG_t."""
    sites = np.asarray(sites, dtype=float)
    duals = [loop_subgradient(g, t) for t in sites]
    constants = [loop_eval_convex(g, t) - float(d @ t) for d, t in zip(duals, sites)]
    weights = [float(d @ d) / 4.0 + c for d, c in zip(duals, constants)]
    return np.array([d / 2.0 for d in duals]), np.array(weights)


def loop_fit_weights(sites, sample):
    """The cell-membership constraints of weight fitting as rows
    A w <= b, one row per point k and competitor site j:
    w_j - w_i <= ||p_j - t_k||^2 - ||p_i - t_k||^2 for the label i of k,
    with (k, i, j) per row."""
    sites = np.asarray(sites, dtype=float)
    m = len(sites)
    rows, rhs, meta = [], [], []
    for k in range(len(sample)):
        t = sample.points[k]
        i = int(sample.labels[k])
        di = float((sites[i] - t) @ (sites[i] - t))
        for j in range(m):
            if j == i:
                continue
            row = np.zeros(m)
            row[j] = 1.0
            row[i] = -1.0
            dj = float((sites[j] - t) @ (sites[j] - t))
            rows.append(row)
            rhs.append(dj - di)
            meta.append((k, i, j))
    return np.asarray(rows).reshape(-1, m), np.asarray(rhs), meta


def recheck_fit_certificate(sites, points, labels, edges, tol):
    """Recheck an infeasible weight fit from the inputs alone.

    ``edges`` lists ``(indices, slack)`` per witness, ``indices`` being
    ``(k, i, j)``: point k is labeled i, the edges close a site cycle in
    order, each slack is c_ij (the least ||p_j - t||^2 - ||p_i - t||^2
    over points t labeled i, attained at t_k), and the slacks sum below
    -tol, so summing the constraints w_j - w_i <= c_ij gives 0 < 0.
    """
    sites = np.asarray(sites, dtype=float)
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    sq = ((points[:, None, :] - sites[None, :, :]) ** 2).sum(axis=-1)
    rel = sq - sq[np.arange(len(points)), labels][:, None]
    assert edges, "an infeasible fit needs a certificate"
    heads = [int(ind[1]) for ind, _ in edges]
    assert len(set(heads)) == len(heads), "the cycle repeats a site"
    total = 0.0
    for n, (ind, slack) in enumerate(edges):
        k, i, j = (int(x) for x in ind)
        assert j == heads[(n + 1) % len(edges)], "the edges do not close a cycle"
        assert i != j and labels[k] == i
        assert abs(slack - rel[k, j]) <= 1e-12 * max(1.0, abs(slack))
        assert slack <= rel[labels == i, j].min() + 1e-12 * max(1.0, abs(slack))
        total += slack
    assert total < -tol


# ---------------------------------------------------------------------------
# loop reference for the canonical writer: the isinstance-chain writer that
# normalizes every value before rendering it


def _loop_format_float(x: float) -> str:
    if x == -math.inf:
        return '"-inf"'
    if math.isnan(x) or x == math.inf:
        raise ValueError(f"cannot serialize {x}")
    return "0" if x == 0.0 else format(x, ".17g")  # -0.0 too


def _loop_write(obj, out: list) -> None:
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        obj = int(obj)
    if isinstance(obj, np.bool_):
        obj = bool(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_loop_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _loop_write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        keys = sorted(str(k) for k in obj)
        lookup = {str(k): v for k, v in obj.items()}
        for k, key in enumerate(keys):
            if k:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _loop_write(lookup[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def loop_dumps(obj) -> str:
    """Canonical single-document JSON text (no trailing newline)."""
    out: list = []
    _loop_write(obj, out)
    return "".join(out)


def report_text(report) -> str:
    """A report's canonical text with one dict per witness, as
    ``CheckReport.to_obj`` used to build it: the reference for the
    writer's columnar witness branch."""
    return dumps(
        {
            "passed": report.passed,
            "witnesses": [w.to_obj() for w in report.witnesses],
            "info": report.info,
        }
    )


# ---------------------------------------------------------------------------
# full-rounds reference for the Bellman-Ford kernel: every relaxation round
# up to m - 1, then one scan for an edge that still relaxes


def full_rounds_longest_paths(weights, source=None, tol=1e-9):
    """Return ``(dist, cycle, cycle_weight)``; ``cycle`` is None when no
    cycle of weight above ``tol`` was found."""
    m = weights.shape[0]
    eps = tol / max(1, 4 * m)
    dist = loop_start(source, m)
    pred = np.full(m, -1, dtype=int)

    for _ in range(max(0, m - 1)):
        cand = dist[:, None] + weights
        np.fill_diagonal(cand, -np.inf)
        best = cand.max(axis=0)
        improved = best > dist + eps
        if not improved.any():
            return dist, None, 0.0
        pred[improved] = cand[:, improved].argmax(axis=0)
        dist[improved] = best[improved]

    cand = dist[:, None] + weights
    np.fill_diagonal(cand, -np.inf)
    best = cand.max(axis=0, initial=-np.inf)
    for v in np.flatnonzero(best > dist + eps):
        u = int(cand[:, int(v)].argmax())
        cycle = _loop_extract_cycle(pred, u, int(v), m)
        if cycle is None:
            continue
        w = sum(float(weights[a, b]) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        if w > tol:
            return dist, cycle, w
    return dist, None, 0.0


def _loop_extract_cycle(pred, u, v, m):
    trail = {v: 0}
    order = [v]
    x = u
    for _ in range(2 * m):
        if x < 0:
            return None
        if x in trail:
            cycle = order[trail[x]:]
            cycle.reverse()
            return cycle
        trail[x] = len(order)
        order.append(x)
        x = int(pred[x])
    return None


# the kernel before its transposed layout, with the forest pass written as
# a loop over tree levels: ``longest_paths`` must match it bit for bit


def loop_start(source, m):
    """The start distances of ``longest_paths``: 0 everywhere for None,
    else -inf but at the source, 0, or at each node of a mapping, its
    value."""
    if source is None:
        return np.zeros(m)
    dist = np.full(m, -np.inf)
    for s, value in (source.items() if isinstance(source, dict) else [(source, 0.0)]):
        dist[s] = value
    return dist


def columnwise_longest_paths(
    weights: np.ndarray,
    source=None,
    tol: float = DEFAULT_TOL,
) -> LongestPathResult:
    """``longest_paths`` as it was before it read the weights transposed:
    each round reduces ``dist[:, None] + weights`` down its columns, once
    for the maximum and again, on a copy, for the argmax of the columns
    that improve.  On more than ``_GATHER_FROM`` nodes each round is
    followed, until the predecessors first close a cycle, by the forest
    pass, one tree level at a time, and that first cycle is walked at
    once.  ``edges_examined`` counts m times the nodes whose distance
    changed in the round before, or m times m when they are too many to
    gather.  ``source`` is None, a node or a mapping of start values
    (``loop_start``)."""
    require_positive(tol)
    m = weights.shape[0]
    eps = tol / max(1, 4 * m)
    dist = loop_start(source, m)
    pred = np.full(m, -1, dtype=int)
    most = m * (m - _GATHER_FROM) // (m + 3 * _GATHER_FROM)
    changed = dist > -np.inf
    forest = m > _GATHER_FROM

    def columns_read():
        k = int(np.count_nonzero(changed))
        return m * (k if most > 0 and k <= most else m)

    rounds = edges = 0
    for rounds in range(1, m):
        cand = dist[:, None] + weights
        np.fill_diagonal(cand, -np.inf)
        best = cand.max(axis=0)
        edges += columns_read()
        improved = best > dist + eps
        if not improved.any():
            return LongestPathResult(dist, pred, None, rounds=rounds, edges_examined=edges)
        pred[improved] = cand[:, improved].argmax(axis=0)
        dist[improved] = best[improved]
        changed = improved
        walk = rounds >= _FIRST_WALK and rounds & (rounds - 1) == 0
        if forest:
            forest = not _loop_has_cycle(pred)
            walk = not forest
            if forest:
                _loop_descend(weights, dist, pred, changed, eps)
        if walk:
            for cycle in _pred_cycles(pred):
                w = _cycle_weight(weights, cycle)
                if w > tol:
                    return LongestPathResult(dist, pred, cycle, w, rounds, edges)

    # an edge that still relaxes after m-1 rounds implies a positive cycle
    cand = dist[:, None] + weights
    np.fill_diagonal(cand, -np.inf)
    best = cand.max(axis=0, initial=-np.inf)  # initial: m may be 0
    edges += columns_read()
    for v in np.flatnonzero(best > dist + eps):
        u = int(cand[:, int(v)].argmax())
        cycle = _extract_cycle(pred, u, int(v), m)
        if cycle is None:
            continue
        w = _cycle_weight(weights, cycle)
        if w > tol:
            return LongestPathResult(dist, pred, cycle, w, rounds, edges)
    return LongestPathResult(dist, pred, None, rounds=rounds, edges_examined=edges)


def _loop_has_cycle(pred) -> bool:
    """Whether following predecessors from some node returns to it."""
    done = [False] * len(pred)
    for start in range(len(pred)):
        trail = set()
        x = start
        while x >= 0 and not done[x]:
            if x in trail:
                return True
            trail.add(x)
            x = int(pred[x])
        for x in trail:
            done[x] = True
    return False


def _loop_descend(weights, dist, pred, changed, eps) -> None:
    """The forest pass, node by node: each level's children take their
    parent's distance plus the tree edge where that gains more than eps,
    all read before any is written, and form the next level."""
    children = [[] for _ in dist]
    for v, u in enumerate(pred.tolist()):
        if u >= 0:
            children[u].append(v)
    level = np.flatnonzero(changed).tolist()
    while level:
        offers = [(v, dist[u] + weights[u, v]) for u in level for v in children[u]]
        level = []
        for v, offer in offers:
            if offer > dist[v] + eps:
                dist[v] = offer
                changed[v] = True
                level.append(v)


def recheck_cycle(weights, cycle, slack, tol):
    """A cycle certificate re-checked from the edge weights alone: a
    simple cycle of at least two nodes whose weight, summed edge by edge,
    is above ``tol`` and equals the reported ``slack``."""
    m = weights.shape[0]
    cycle = [int(x) for x in cycle]
    assert len(cycle) >= 2, cycle
    assert len(set(cycle)) == len(cycle), f"not a simple cycle: {cycle}"
    assert all(0 <= x < m for x in cycle), cycle
    total = math.fsum(weights[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    assert total > tol, f"cycle {cycle} weighs {total}, not above {tol}"
    assert math.isclose(total, slack, rel_tol=1e-12, abs_tol=1e-12), (total, slack)
