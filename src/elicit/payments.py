"""Payment synthesis and revenue analysis.

Given an implementable allocation family, the path-sum construction
recovers the least consumer-surplus function anchored at a base type,
and from it the payments.  Revenue intervals quantify how far finite
type spaces are from revenue equivalence: every value inside the
interval extends the anchored surplus values to a valid convex surplus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    CheckReport,
    ElicitError,
    InconsistentAnchorsError,
    LinearFamily,
    NotImplementableError,
    NotMonotoneError,
    ScoreTable,
    TypeSpace,
    WitnessColumns,
    _as_vector,
    _gain_scan,
    _index,
    _number,
    _overflow,
    require_positive,
)
from .monotone import LongestPathResult, _cmon_graph, _Transposed, longest_paths

__all__ = [
    "StepAllocation",
    "PaymentResult",
    "RevenueInterval",
    "myerson_payment",
    "rochet_payments",
    "revenue_interval",
    "check_revenue_equivalence",
]


@dataclass
class StepAllocation:
    """Right-continuous step function on [0, inf), given as breakpoints
    (first must be 0) and the value on each [b_i, b_{i+1})."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.breakpoints = _as_vector(self.breakpoints, "breakpoints")
        self.values = _as_vector(self.values, "values")
        if len(self.breakpoints) != len(self.values) or len(self.values) == 0:
            raise ValueError("need one value per breakpoint, at least one each")
        if self.breakpoints[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    def validate_monotone(self) -> None:
        diffs = np.diff(self.values)
        bad = np.flatnonzero(diffs < 0)
        if bad.size:
            k = int(bad[0])
            raise NotMonotoneError(k, self.values[k], self.values[k + 1])

    def value_at(self, t: float) -> float:
        t = _number(t, "t", "nonnegative and finite")  # the allocation is defined on [0, inf)
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return float(self.values[idx])


def myerson_payment(alloc: StepAllocation, t: float, p0: float = 0.0) -> float:
    """Single-parameter payment t f(t) - integral_0^t f + p0.

    The step-function integral is evaluated in exact rational
    arithmetic over the binary values of the float inputs, so no
    quadrature error enters.
    """
    t, p0 = _number(t, "t", "nonnegative and finite"), _number(p0, "p0")
    alloc.validate_monotone()
    tf = Fraction(t)
    total = Fraction(0)
    bps = [Fraction(float(b)) for b in alloc.breakpoints]
    vals = [Fraction(float(v)) for v in alloc.values]
    for i, (b, v) in enumerate(zip(bps, vals)):
        hi = bps[i + 1] if i + 1 < len(bps) else None
        if b >= tf:
            break
        seg_hi = tf if hi is None or hi > tf else hi
        total += v * (seg_hi - b)
    payment = tf * Fraction(alloc.value_at(t)) - total + Fraction(p0)
    return float(payment)


@dataclass
class PaymentResult:
    """Surplus values G(t), payments p(t) = <f(t), t> - G(t), and the
    base type where the surplus is pinned to zero."""

    surplus: np.ndarray
    payments: np.ndarray
    base_type: int
    family: LinearFamily

    def induced_score(self) -> ScoreTable:
        """The truthful affine score A(r)(t) = <f(r), t> - p(r)."""
        return ScoreTable(
            reports=list(range(len(self.payments))),
            linear=self.family.vectors.copy(),
            constant=-self.payments,
        )


def _paths_from(graph: _Transposed, source, tol: float) -> LongestPathResult:
    """Longest paths from ``source``, a node or a mapping to start values;
    a positive cycle raises :class:`NotImplementableError` carrying it."""
    res = longest_paths(graph, source=source, tol=tol)
    if res.cycle is not None:
        raise NotImplementableError(res.cycle, res.cycle_weight)
    return res


def rochet_payments(
    ts: TypeSpace,
    fam: LinearFamily,
    t0: int = 0,
    tol: float = DEFAULT_TOL,
) -> PaymentResult:
    """Path-sum surplus construction over the allocation graph.

    surplus[t] is the longest-path value from ``t0`` to ``t`` using edge
    weights d_u(v - u); cyclic monotonicity makes this well defined.
    Raises :class:`NotImplementableError` carrying the positive cycle
    otherwise, and ``ValueError`` naming the first type whose payoff
    <t, d> or payment leaves the float range.  The induced score is
    verified truthful before returning.
    """
    require_positive(tol)
    fam.check_aligned(ts)
    t0 = _index(t0, len(ts), "base type")
    graph = _cmon_graph(ts.points, fam.vectors)
    surplus = _paths_from(graph, t0, tol).dist
    with np.errstate(over="ignore", invalid="ignore"):
        own = np.einsum("ij,ij->i", fam.vectors, ts.points)
        payments = own - surplus
    if not np.isfinite(payments).all():  # the surplus is finite: name the payoff if it overflowed
        _overflow(own, "the payoff <t, d>", ts.points)
        _overflow(payments, "the payment <t, d> - surplus", ts.points)
    result = PaymentResult(surplus, payments, t0, fam)
    # the payoffs of the post-check take the weights' place
    worst = _gain_scan(result.induced_score(), ts, tol, out=graph.wt).best
    if worst > tol:
        raise ElicitError(
            f"internal error: synthesized score violates truthfulness by {worst:.3g}"
        )
    return result


@dataclass
class RevenueInterval:
    """All surplus values at ``target`` consistent with the anchors."""

    lower: float
    upper: float
    fixed: Dict[int, float]
    target: int


def _root_anchor(pred: np.ndarray, node: int, anchors: Dict[int, float]) -> int:
    """The anchor at the root of ``node``'s predecessor chain, where the
    path that sets its distance starts, walked at most m steps.  A chain
    that closes a cycle first, one of weight at most tol, gives the last
    anchor it met, ``node`` itself if none: the cycle runs through it."""
    found = node
    for _ in range(len(pred)):
        node = int(pred[node])
        if node < 0:
            break
        if node in anchors:
            found = node
    return found


def revenue_interval(
    ts: TypeSpace,
    fam: LinearFamily,
    anchors: Dict[int, float],
    target: int,
    tol: float = DEFAULT_TOL,
) -> RevenueInterval:
    """Tight surplus bounds at ``target`` given anchored surplus values.

    lower = max over anchors s of  anchors[s] + longest-path(s -> target)
    upper = min over anchors s of  anchors[s] - longest-path(target -> s)

    Two searches give both, whatever the number of anchors.  The first
    starts every anchor at its value (``longest_paths`` from a mapping):
    its distances are the least surplus that takes the anchored values,
    and lower is its value at the target.  The anchors are inconsistent
    when it exceeds an anchor's value by more than ``tol``, as no convex
    surplus then takes them all; the error names the first such anchor
    in the given order, its path bound, and the anchor at the root of its
    predecessor chain, where the path that forces the bound starts.  A
    positive cycle that the search lets through, one it reads off at
    weight at most ``tol``, can raise an anchor on it above its own
    value, a single anchor too; the error then names that anchor as its
    own root.  The second search, from the target, gives upper.  A target that is
    itself anchored yields the degenerate interval at its anchored
    value, after the first search alone.
    """
    require_positive(tol)
    fam.check_aligned(ts)
    if not anchors:
        raise ValueError("at least one anchor is required")
    anchors = {_index(k, len(ts), "anchor index"): v for k, v in anchors.items()}
    anchors = {i: _number(v, f"anchor {i}") for i, v in anchors.items()}
    target = _index(target, len(ts), "target")
    graph = _cmon_graph(ts.points, fam.vectors)
    least = _paths_from(graph, anchors, tol)
    for s2, vs2 in anchors.items():
        if least.dist[s2] > vs2 + tol:
            s = _root_anchor(least.pred, s2, anchors)
            raise InconsistentAnchorsError(
                f"anchor {s2}={vs2:.6g} below path bound "
                f"{least.dist[s2]:.6g} forced by anchor {s}={anchors[s]:.6g}"
            )

    if target in anchors:
        v = anchors[target]
        return RevenueInterval(v, v, anchors, target)

    from_target = _paths_from(graph, target, tol).dist
    upper = min(v - from_target[s] for s, v in anchors.items())
    return RevenueInterval(float(least.dist[target]), float(upper), anchors, target)


def check_revenue_equivalence(
    ts: TypeSpace,
    fam: LinearFamily,
    t0: int = 0,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Revenue equivalence holds iff pinning the surplus at one type pins
    it everywhere; witnesses are targets whose interval has width > tol.

    The interval at x runs from the longest path t0 -> x up to minus the
    longest path x -> t0.  The latter is read off the swapped family,
    types d and functionals t, whose edge u -> v weighs t_u . (d_v - d_u)
    = w(v -> u) + phi(v) - phi(u), phi(x) = <t_x, d_x>: its longest path
    t0 -> x weighs phi(x) - phi(t0) more.  A positive cycle its search
    finds is raised in its order on the swapped graph: reversed, it is a
    cycle of the family's graph of the same exact weight.  A width beyond
    the float range, which rounding can give at its edge when every
    weight and path is finite, raises ``ValueError`` naming its type."""
    require_positive(tol)
    fam.check_aligned(ts)
    t0 = _index(t0, len(ts), "base type")
    lower = _paths_from(_cmon_graph(ts.points, fam.vectors), t0, tol).dist
    swapped = _paths_from(_cmon_graph(fam.vectors, ts.points), t0, tol).dist
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.einsum("ij,ij->i", fam.vectors, ts.points)
        upper = _overflow(phi - phi[t0], "the potential shift <t, d> - <t0, d0>", ts.points) - swapped
        width = upper - lower  # <= 0 at t0: both of its paths to itself weigh >= 0
    _overflow(width, "the surplus interval width", ts.points)
    wide = np.flatnonzero(width > tol)
    detail = ("surplus interval [%.6g, %.6g]", (lower[wide], upper[wide]))
    witnesses = WitnessColumns([("target", wide[:, None], width[wide], detail)])
    return CheckReport(witnesses, {"tol": tol, "base_type": t0})
