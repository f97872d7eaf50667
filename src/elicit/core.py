"""Convex-function engine and shared domain types.

Everything downstream (truthfulness checks, payment synthesis, scoring
rules, power diagrams) is driven by a convex function together with a
selection of subgradients.  This module provides the three supported
representations of a convex function -- a max of affine pieces, the
squared Euclidean norm, and negative entropy on the probability simplex
-- plus evaluation, subgradient selection, discrete Legendre
conjugation, and the Bregman-style regret divergence.

Vectors are numpy float64 arrays.  Extended reals are plain floats where
``-inf`` is a legal value for score constants and payoffs (log-score
style); ``+inf`` and ``nan`` are rejected at every public boundary.  The
multiplication convention ``0 * (-inf) == 0``, also for a probability
within ``SIMPLEX_TOL`` below 0, is applied by
``scoring.OutcomeScoreTable.payoff_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "INTERIOR_EPS",
    "SIMPLEX_TOL",
    "ElicitError",
    "DomainError",
    "DimensionMismatchError",
    "EvaluationError",
    "NotImplementableError",
    "NotMonotoneError",
    "InconsistentAnchorsError",
    "UnreachableActionError",
    "NonPositiveScaleError",
    "Witness",
    "CheckReport",
    "TypeSpace",
    "LinearFamily",
    "MaxAffine",
    "SquaredNorm",
    "NegEntropy",
    "ConvexSpec",
    "ScoreTable",
    "require_extended_real",
    "require_positive",
    "eval_convex",
    "subgradient",
    "conjugate",
    "mask_witnesses",
    "deviation_gains",
    "check_subgradient_selection",
    "bregman_divergence",
]

#: Absolute tolerance for equality/inequality checks.
DEFAULT_TOL = 1e-9
#: Coordinates below this are treated as on the simplex boundary.
INTERIOR_EPS = 1e-12
#: Tolerance for simplex membership (sum to one, nonnegativity).
SIMPLEX_TOL = 1e-9


class ElicitError(Exception):
    """Base class for all library errors."""


class DomainError(ElicitError):
    """Input lies outside the valid domain of a convex function."""


class DimensionMismatchError(ElicitError):
    """Vector dimensions or collection lengths do not line up."""


class EvaluationError(ElicitError):
    """A caller-supplied callable failed during evaluation."""


class NotImplementableError(ElicitError):
    """No payment rule can make the given allocation truthful.

    Carries the violating cycle as ``.cycle`` (type indices) and its
    total weight as ``.weight``.
    """

    def __init__(self, cycle: Sequence[int], weight: float):
        self.cycle = list(cycle)
        self.weight = float(weight)
        super().__init__(
            f"positive cycle {self.cycle} with weight {self.weight:.6g}"
        )


class NotMonotoneError(ElicitError):
    """A 1-D allocation decreases; carries the first offending pair."""

    def __init__(self, index: int, left: float, right: float):
        self.index = index
        self.left = float(left)
        self.right = float(right)
        super().__init__(
            f"allocation decreases at breakpoint {index}: "
            f"{self.left:.6g} -> {self.right:.6g}"
        )


class InconsistentAnchorsError(ElicitError):
    """Anchored surplus values cannot all belong to one convex function."""


class UnreachableActionError(ElicitError):
    """A subgradient puts weight on an action the decision rule never takes."""


class NonPositiveScaleError(ElicitError):
    """Homothet scale factors must be positive and finite."""


# ---------------------------------------------------------------------------
# extended reals


def require_extended_real(x: float, what: str = "value") -> float:
    """Validate a float as real-or-(-inf); reject +inf and nan."""
    x = float(x)
    if math.isnan(x) or x == math.inf:
        raise ValueError(f"{what} must be finite or -inf, got {x}")
    return x


def require_positive(x: float, what: str = "tolerance") -> float:
    """Validate a tolerance or radius as positive and finite.  Against a
    nan or infinite tolerance no comparison fails, so no check could."""
    if not 0 < x < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {x}")
    return x


# ---------------------------------------------------------------------------
# check reports


@dataclass
class Witness:
    """One violation record: which indices, and by how much."""

    kind: str
    indices: tuple
    slack: float
    detail: str = ""

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "indices": list(self.indices),
            "slack": self.slack,
            "detail": self.detail,
        }


@dataclass
class CheckReport:
    """Outcome of a verification: ``passed`` iff ``witnesses`` is empty."""

    passed: bool
    witnesses: list
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed != (len(self.witnesses) == 0):
            raise ValueError("passed flag inconsistent with witness list")

    @classmethod
    def from_witnesses(cls, witnesses, info=None) -> "CheckReport":
        witnesses = list(witnesses)
        return cls(passed=not witnesses, witnesses=witnesses, info=dict(info or {}))

    def to_obj(self) -> dict:
        return {
            "passed": self.passed,
            "witnesses": [w.to_obj() for w in self.witnesses],
            "info": dict(self.info),
        }


def mask_witnesses(kind: str, mask, slack, detail, index=None) -> list:
    """One :class:`Witness` per ``True`` entry of ``mask``, in row-major
    (``np.argwhere``) order.

    ``slack`` has the shape of ``mask`` and gives each witness its
    slack.  ``detail`` is a fixed string or a function of the entry's
    index tuple.  ``index``, when given, maps that tuple to the
    witness's indices; by default they are the tuple itself.
    """
    hits = np.argwhere(mask).tolist()
    slacks = np.asarray(slack)[mask].tolist()
    fixed = isinstance(detail, str)
    return [
        Witness(
            kind=kind,
            indices=tuple(ij) if index is None else index(*ij),
            slack=s,
            detail=detail if fixed else detail(*ij),
        )
        for ij, s in zip(hits, slacks)
    ]


def deviation_gains(values, truth, axis: int) -> np.ndarray:
    """What every report gains over each agent's truthful one: ``values``
    minus the agent's own score, in the layout of ``values``.  Reports
    run along ``axis``, agents (types or beliefs) along the other, and
    agent a's truthful report is ``truth[a]``.  A non-finite own score
    raises ``ValueError``; so does a ``+inf`` or nan gain (an overflow),
    naming the first such agent and its report.  ``-inf`` gains are legal."""
    by_agent = values.T if axis == 0 else values  # by_agent[agent, report]
    own = by_agent[np.arange(len(by_agent)), truth]
    if not np.isfinite(own).all():
        raise ValueError("truthful reports must score finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        gains = values - np.expand_dims(own, axis)
    if not (gains < np.inf).all():
        by_agent = gains.T if axis == 0 else gains
        a, r = np.argwhere(~(by_agent < np.inf))[0].tolist()
        raise ValueError(
            f"agent {a} gains {by_agent[a, r]} by report {r}: "
            "deviation gains must be finite or -inf"
        )
    return gains


# ---------------------------------------------------------------------------
# domain types


def _as_matrix(points, what: str) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise DimensionMismatchError(f"{what} must be a 2-D array of row vectors")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{what} must be finite")
    return pts


def _as_vector(v, what: str = "vector") -> np.ndarray:
    vec = np.atleast_1d(np.asarray(v, dtype=float))
    if vec.ndim != 1:
        raise DimensionMismatchError(f"{what} must be 1-D")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} must be finite")
    return vec


@dataclass
class TypeSpace:
    """A finite list of type vectors in R^n, pairwise distinct."""

    points: np.ndarray

    def __post_init__(self):
        self.points = _as_matrix(self.points, "points")
        if len(self.points) == 0:
            raise ValueError("type space must be nonempty")
        seen = set()
        for i, p in enumerate(self.points):
            key = p.tobytes()
            if key in seen:
                raise ValueError(f"duplicate type at index {i}")
            seen.add(key)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class LinearFamily:
    """One linear functional per type: allocation rules and subgradient
    selections, indexed positionally against a :class:`TypeSpace`."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = _as_matrix(self.vectors, "vectors")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.vectors)

    def check_aligned(self, ts: TypeSpace) -> None:
        if len(self) != len(ts) or self.dim != ts.dim:
            raise DimensionMismatchError(
                f"family ({len(self)} x {self.dim}) not aligned with "
                f"type space ({len(ts)} x {ts.dim})"
            )


@dataclass
class MaxAffine:
    """G(t) = max_k <slopes[k], t> + intercepts[k]; finite everywhere."""

    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        self.slopes = _as_matrix(self.slopes, "slopes")
        self.intercepts = _as_vector(self.intercepts, "intercepts")
        if len(self.slopes) == 0:
            raise ValueError("max-affine spec needs at least one piece")
        if len(self.slopes) != len(self.intercepts):
            raise DimensionMismatchError("one intercept per slope required")

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]


@dataclass
class SquaredNorm:
    """G(t) = <t, t>."""


@dataclass
class NegEntropy:
    """G(t) = sum_i t_i ln t_i on the probability simplex, 0 ln 0 = 0."""


ConvexSpec = Union[MaxAffine, SquaredNorm, NegEntropy]


@dataclass
class ScoreTable:
    """Affine score on a finite report set.

    Row r is the affine function t -> <linear[r], t> + constant[r].
    Linear parts are finite; constants may be -inf but never +inf.
    """

    reports: list
    linear: np.ndarray
    constant: np.ndarray

    def __post_init__(self):
        self.reports = list(self.reports)
        self.linear = _as_matrix(self.linear, "linear parts")
        self.constant = np.asarray(self.constant, dtype=float).reshape(-1)
        if not (len(self.reports) == len(self.linear) == len(self.constant)):
            raise DimensionMismatchError("reports, linear, constant must align")
        for c in self.constant:
            require_extended_real(c, "score constant")

    @property
    def dim(self) -> int:
        return self.linear.shape[1]

    def __len__(self) -> int:
        return len(self.reports)

    def evaluate(self, report_idx: int, t) -> float:
        """Score of ``report_idx`` as a function of true type ``t``."""
        t = _as_vector(t, "type")
        return float(self.linear[report_idx] @ t + self.constant[report_idx])

    def payoff_matrix(self, ts: TypeSpace) -> np.ndarray:
        """Matrix V[r, i] = score of report r at type i."""
        if ts.dim != self.dim:
            raise DimensionMismatchError("score table dimension != type space")
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            return self.linear @ ts.points.T + self.constant[:, None]

    def validate_regular(self, ts: TypeSpace) -> None:
        """Gamma-regularity: the best report is finite at every type."""
        best = self.payoff_matrix(ts).max(axis=0)
        if not np.all(np.isfinite(best)):
            bad = int(np.argmin(np.isfinite(best)))
            raise ValueError(f"no finite-scoring report at type index {bad}")


# ---------------------------------------------------------------------------
# convex-function operations


def _off_simplex(rows: np.ndarray) -> np.ndarray:
    """True for each row (along the last axis) that is not on the
    probability simplex within SIMPLEX_TOL; a row with a nan is not."""
    nonneg = (rows >= -SIMPLEX_TOL).all(axis=-1)
    return ~(nonneg & (abs(rows.sum(axis=-1) - 1.0) <= SIMPLEX_TOL))


def _check_simplex(points: np.ndarray) -> None:
    rows = np.atleast_2d(points)  # raise for the first row off the simplex
    off = _off_simplex(rows)
    if off.any():
        raise DomainError(
            f"point {rows[np.argmax(off)].tolist()} is not on the probability "
            f"simplex (tolerance {SIMPLEX_TOL})"
        )


def _eval_rows(g: ConvexSpec, pts: np.ndarray) -> np.ndarray:
    """G at every row of the 2-D array ``pts``, each value bitwise as
    for that row alone: an entropy row sums its positive terms only."""
    if isinstance(g, MaxAffine):
        if g.dim != pts.shape[1]:
            raise DimensionMismatchError(f"expected dimension {g.dim}, got {pts.shape[1]}")
        pieces = np.matmul(g.slopes[None], pts[:, :, None])[:, :, 0]
        return (pieces + g.intercepts).max(axis=1)
    if isinstance(g, SquaredNorm):
        return np.vecdot(pts, pts)
    if isinstance(g, NegEntropy):
        _check_simplex(pts)
        pos = pts > 0.0
        terms = pts * np.log(pts, out=np.zeros_like(pts), where=pos)
        sizes = pos.sum(axis=1)  # >= 1 on the simplex
        out = np.empty(len(pts))
        for size in set(sizes.tolist()):  # one pairwise sum per row length
            rows = sizes == size
            out[rows] = terms[rows][pos[rows]].reshape(-1, size).sum(axis=1)
        return out
    raise TypeError(f"unknown convex spec {type(g).__name__}")


def eval_convex(g: ConvexSpec, t):
    """Evaluate the convex function at ``t``: one point (float result) or
    each row of a 2-D array (array result, bitwise as row by row).

    Raises :class:`DomainError` for negative-entropy inputs off the
    simplex beyond tolerance, naming the first such row.
    """
    t = np.asarray(t, dtype=float)
    values = _eval_rows(g, _as_matrix(np.atleast_2d(t), "point"))
    return float(values[0]) if t.ndim < 2 else values


def _grad_rows(g: ConvexSpec, pts: np.ndarray) -> np.ndarray:
    """One subgradient of G at every row of the 2-D array ``pts``, each
    bitwise as for that row alone; a bad row raises the error of the
    first one in row order."""
    if isinstance(g, MaxAffine):
        if g.dim != pts.shape[1]:
            raise DimensionMismatchError(f"expected dimension {g.dim}, got {pts.shape[1]}")
        pieces = np.matmul(g.slopes[None], pts[:, :, None])[:, :, 0]
        return g.slopes[(pieces + g.intercepts).argmax(axis=1)]
    if isinstance(g, SquaredNorm):
        return 2.0 * pts
    if isinstance(g, NegEntropy):
        first = int(np.append((pts < INTERIOR_EPS).any(axis=1), True).argmax())
        _check_simplex(pts[: first + 1])  # an earlier or the same row off the simplex wins
        if first < len(pts):
            raise DomainError(
                "negative entropy has no finite subgradient on the simplex "
                f"boundary (coordinates must be >= {INTERIOR_EPS})"
            )
        return 1.0 + np.log(pts)
    raise TypeError(f"unknown convex spec {type(g).__name__}")


def subgradient(g: ConvexSpec, t) -> np.ndarray:
    """Return one subgradient of ``g`` at ``t``.

    Max-affine ties are broken toward the lowest piece index, so the
    selection is deterministic.  Negative entropy requires a strictly
    interior point (all coordinates >= 1e-12).
    """
    return _grad_rows(g, _as_vector(t, "point")[None])[0]


def conjugate(g: ConvexSpec, d, grid: TypeSpace):
    """Discrete Legendre transform: max over the grid of <d, v> - G(v).

    ``d`` is one dual vector (float result) or a 2-D array of them, one
    per row (array result); G is evaluated once, on the whole grid.
    The result is a certified lower bound on the true conjugate, and is
    exact whenever a maximizer lies on the grid.  For 1-D max-affine
    functions the piece-crossing points inside the grid's hull are also
    scanned, which makes the 1-D max-affine conjugate exact.
    """
    d = np.asarray(d, dtype=float)
    duals = _as_matrix(np.atleast_2d(d), "dual vector")
    if duals.shape[1] != grid.dim:
        raise DimensionMismatchError("dual vector dimension != grid dimension")
    pts = grid.points
    # stacked matrix-vector products: bitwise the per-vector pts @ d
    inner = np.matmul(pts[None], duals[:, :, None])[:, :, 0]
    best = (inner - _eval_rows(g, pts)).max(axis=1)
    if isinstance(g, MaxAffine) and grid.dim == 1:
        a, b = g.slopes[:, 0], g.intercepts
        for i in range(len(a)):  # crossings of piece i with later ones; bounds memory
            j = np.arange(i + 1, len(a))[a[i + 1 :] != a[i]]
            x = (b[j] - b[i]) / (a[i] - a[j])
            x = x[(pts.min() <= x) & (x <= pts.max())]
            cand = duals[:, :1] * x - _eval_rows(g, x[:, None])  # d[0] * x keeps -0.0
            best = np.maximum(best, cand.max(axis=1, initial=-np.inf))
    return float(best[0]) if d.ndim < 2 else best


def check_subgradient_selection(
    g: ConvexSpec,
    fam: LinearFamily,
    ts: TypeSpace,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Verify G(t') >= G(t) + d_t(t' - t) - tol over all ordered pairs.

    Witnesses list every violating pair together with its slack.
    """
    require_positive(tol)
    fam.check_aligned(ts)
    evals = _eval_rows(g, ts.points)
    inner = fam.vectors @ ts.points.T  # inner[i, j] = d_i . t_j
    diag = np.diag(inner)
    # slack[i, j] = G(t_i) + d_i(t_j - t_i) - G(t_j)
    slack = evals[:, None] + inner - diag[:, None] - evals[None, :]
    mask = (slack > tol) & ~np.eye(len(ts), dtype=bool)
    witnesses = mask_witnesses(
        "pair", mask, slack, "subgradient inequality violated"
    )
    return CheckReport.from_witnesses(witnesses, {"tol": tol})


def bregman_divergence(g: ConvexSpec, t, t_report) -> float:
    """Regret of reporting ``t_report`` under truth ``t``:
    G(t) - G(t') - <t - t', dG_{t'}>.  Nonnegative by convexity."""
    t = _as_vector(t, "point")
    t_report = _as_vector(t_report, "report point")
    d = subgradient(g, t_report)
    return eval_convex(g, t) - eval_convex(g, t_report) - float((t - t_report) @ d)
