"""Payment synthesis and revenue analysis.

Given an implementable allocation family, the path-sum construction
recovers the least consumer-surplus function anchored at a base type,
and from it the payments.  Revenue intervals quantify how far finite
type spaces are from revenue equivalence: every value inside the
interval extends the anchored surplus values to a valid convex surplus.
"""

from __future__ import annotations

import math
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
    deviation_gains,
    mask_witnesses,
    require_positive,
)
from .monotone import cmon_weights, longest_paths

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
        self.breakpoints = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if len(self.breakpoints) != len(self.values) or len(self.values) == 0:
            raise ValueError("need one value per breakpoint, at least one each")
        if self.breakpoints[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(self.breakpoints)) or not np.all(
            np.isfinite(self.values)
        ):
            raise ValueError("breakpoints and values must be finite")

    def validate_monotone(self) -> None:
        diffs = np.diff(self.values)
        bad = np.flatnonzero(diffs < 0)
        if bad.size:
            k = int(bad[0])
            raise NotMonotoneError(k, self.values[k], self.values[k + 1])

    def value_at(self, t: float) -> float:
        if t < 0:
            raise ValueError("allocation is defined on [0, inf)")
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return float(self.values[idx])


def myerson_payment(alloc: StepAllocation, t: float, p0: float = 0.0) -> float:
    """Single-parameter payment t f(t) - integral_0^t f + p0.

    The step-function integral is evaluated in exact rational
    arithmetic over the binary values of the float inputs, so no
    quadrature error enters.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    if not math.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    alloc.validate_monotone()
    tf = Fraction(float(t))
    total = Fraction(0)
    bps = [Fraction(float(b)) for b in alloc.breakpoints]
    vals = [Fraction(float(v)) for v in alloc.values]
    for i, (b, v) in enumerate(zip(bps, vals)):
        hi = bps[i + 1] if i + 1 < len(bps) else None
        if b >= tf:
            break
        seg_hi = tf if hi is None or hi > tf else hi
        total += v * (seg_hi - b)
    payment = tf * Fraction(alloc.value_at(t)) - total + Fraction(float(p0))
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


def _paths_from(weights: np.ndarray, source: int, tol: float) -> np.ndarray:
    """Longest-path values from ``source``; a positive cycle raises
    :class:`NotImplementableError` carrying it."""
    res = longest_paths(weights, source=source, tol=tol)
    if res.cycle is not None:
        raise NotImplementableError(res.cycle, res.cycle_weight)
    return res.dist


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
    otherwise.  The induced score is verified truthful before returning.
    """
    require_positive(tol)
    fam.check_aligned(ts)
    if not 0 <= t0 < len(ts):
        raise ValueError(f"base type {t0} out of range")
    surplus = _paths_from(cmon_weights(ts, fam), t0, tol)
    own = np.einsum("ij,ij->i", fam.vectors, ts.points)
    payments = own - surplus
    result = PaymentResult(surplus, payments, t0, fam)
    values = result.induced_score().payoff_matrix(ts)
    worst = float(deviation_gains(values, np.arange(len(ts)), axis=0).max())
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


def _check_anchor_consistency(
    anchors: Dict[int, float],
    dists: Dict[int, np.ndarray],
    tol: float,
) -> None:
    for s, vs in anchors.items():
        for s2, vs2 in anchors.items():
            if s == s2:
                continue
            bound = vs + dists[s][s2]
            if vs2 < bound - tol:
                raise InconsistentAnchorsError(
                    f"anchor {s2}={vs2:.6g} below path bound "
                    f"{bound:.6g} forced by anchor {s}={vs:.6g}"
                )


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

    A target that is itself anchored yields the degenerate interval at
    its anchored value.
    """
    require_positive(tol)
    fam.check_aligned(ts)
    if not anchors:
        raise ValueError("at least one anchor is required")
    anchors = {int(k): float(v) for k, v in anchors.items()}
    for idx, v in anchors.items():
        if not math.isfinite(v):
            raise ValueError(f"anchor {idx} must be finite, got {v}")
    for idx in list(anchors) + [target]:
        if not 0 <= idx < len(ts):
            raise ValueError(f"type index {idx} out of range")
    weights = cmon_weights(ts, fam)
    dists = {s: _paths_from(weights, s, tol) for s in anchors}
    _check_anchor_consistency(anchors, dists, tol)

    if target in anchors:
        v = anchors[target]
        return RevenueInterval(v, v, anchors, target)

    from_target = _paths_from(weights, target, tol)
    lower = max(v + dists[s][target] for s, v in anchors.items())
    upper = min(v - from_target[s] for s, v in anchors.items())
    return RevenueInterval(float(lower), float(upper), anchors, target)


def check_revenue_equivalence(
    ts: TypeSpace,
    fam: LinearFamily,
    t0: int = 0,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Revenue equivalence holds iff pinning the surplus at one type pins
    it everywhere; witnesses are targets whose interval has width > tol."""
    require_positive(tol)
    fam.check_aligned(ts)
    weights = cmon_weights(ts, fam)
    lower = _paths_from(weights, t0, tol)
    upper = -_paths_from(weights.T, t0, tol)  # longest paths target -> t0, reversed graph
    width = upper - lower  # <= 0 at t0: both of its paths to itself weigh >= 0
    witnesses = mask_witnesses(
        "target",
        width > tol,
        width,
        lambda t: f"surplus interval [{lower[t]:.6g}, {upper[t]:.6g}]",
    )
    return CheckReport.from_witnesses(witnesses, {"tol": tol, "base_type": t0})
