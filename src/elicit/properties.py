"""Finite-valued property elicitation via power diagrams.

A finite-report property is elicitable exactly when its level sets form
a power diagram, so this module provides: nearest-site labeling under
the power distance, the affine score a diagram induces, fitting weights
to a labeled sample (with sites fixed, difference constraints
w_j - w_i <= c_ij on the longest-path kernel of ``monotone``: canonical
weights, or a site cycle whose c_ij sum below zero), the pairwise
monotonicity check on cells, homothets that preserve every cell
boundary, a sandwich test for level-set convexity, and the conversion
from Bregman-divergence diagrams to power diagrams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    CheckReport,
    ConvexSpec,
    DimensionMismatchError,
    NonPositiveScaleError,
    ScoreTable,
    TypeSpace,
    Witness,
    _as_matrix,
    conjugate,
    mask_witnesses,
    require_positive,
    subgradient,
)
from .monotone import longest_paths

__all__ = [
    "PowerDiagramSpec",
    "LabeledSample",
    "Labeling",
    "FitWeightsResult",
    "power_cells",
    "score_from_diagram",
    "fit_weights",
    "check_wmon_cells",
    "homothet_transform",
    "check_level_set_convexity",
    "bregman_to_power",
]

#: Second-best power distances within this of the best are flagged as ties.
TIE_TOL = 1e-9


@dataclass
class PowerDiagramSpec:
    """Sites p_i with weights w_i; the cell of site i collects the points
    where ||p_i - t||^2 - w_i is minimal."""

    sites: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.sites = _as_matrix(self.sites, "sites")
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.sites) == 0:
            raise ValueError("diagram needs at least one site")
        if len(self.weights) != len(self.sites):
            raise DimensionMismatchError("one weight per site required")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        seen = set()
        for i, p in enumerate(self.sites):
            key = p.tobytes()
            if key in seen:
                raise ValueError(f"duplicate site at index {i}")
            seen.add(key)

    @property
    def dim(self) -> int:
        return self.sites.shape[1]

    def __len__(self) -> int:
        return len(self.sites)


@dataclass
class LabeledSample:
    """Sample points with a report (site) label each."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.points = _as_matrix(self.points, "points")
        labels = np.asarray(self.labels, dtype=float).reshape(-1)
        if not np.all(np.isfinite(labels) & (labels == np.trunc(labels))):
            raise ValueError("labels must be integers")
        self.labels = labels.astype(int)
        if len(self.labels) != len(self.points):
            raise DimensionMismatchError("one label per point required")
        if len(self.labels) and self.labels.min() < 0:
            raise ValueError("labels must be nonnegative indices")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class Labeling:
    """Power-cell labels with boundary ties recorded."""

    labels: np.ndarray
    ties: np.ndarray


def _sq_dists(points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    diffs = points[:, None, :] - sites[None, :, :]
    return np.einsum("kmn,kmn->km", diffs, diffs)


def power_cells(diag: PowerDiagramSpec, points) -> Labeling:
    """Label each point with its least-power-distance site; ties break
    toward the lowest site index and raise the tie flag."""
    points = _as_matrix(points, "points")
    if points.shape[1] != diag.dim:
        raise DimensionMismatchError("points dimension != diagram dimension")
    costs = _sq_dists(points, diag.sites) - diag.weights[None, :]
    labels = costs.argmin(axis=1)
    best = costs[np.arange(len(points)), labels]
    ties = (costs <= best[:, None] + TIE_TOL).sum(axis=1) >= 2
    return Labeling(labels=labels.astype(int), ties=ties)


def score_from_diagram(diag: PowerDiagramSpec) -> ScoreTable:
    """Affine score whose argmax cells are exactly the diagram's cells:
    report r scores 2 <p_r, t> + w_r - ||p_r||^2."""
    sq = np.einsum("ij,ij->i", diag.sites, diag.sites)
    return ScoreTable(
        reports=list(range(len(diag))),
        linear=2.0 * diag.sites,
        constant=diag.weights - sq,
    )


@dataclass
class FitWeightsResult:
    """Outcome of weight fitting; infeasibility is a certified answer,
    not an error, and carries a site cycle of conflicting constraints."""

    feasible: bool
    weights: Optional[np.ndarray] = None
    witnesses: List[Witness] = field(default_factory=list)


def fit_weights(sites, sample: LabeledSample, tol: float = DEFAULT_TOL) -> FitWeightsResult:
    """Fit weights so every sample point lands in its labeled cell.

    With sites fixed the cell-membership constraints are difference
    constraints w_j - w_i <= c_ij, c_ij the least ||p_j - t||^2 -
    ||p_i - t||^2 over points t labeled i (+inf if none), solved by
    longest paths on -c.  Feasible: the componentwise largest w with
    max 0, shifted to min 0.  Infeasible: a site cycle whose c_ij sum
    below -tol, one witness (k, i, j) per edge in cycle order, with k
    the lowest-index point labeled i attaining c_ij and c_ij as slack.
    """
    require_positive(tol)
    sites = _as_matrix(sites, "sites")
    m = len(sites)
    if len(sample) == 0:
        return FitWeightsResult(feasible=True, weights=np.zeros(m))
    labels = sample.labels
    if labels.max() >= m:
        raise ValueError("sample label exceeds site count")
    if sample.points.shape[1] != sites.shape[1]:
        raise DimensionMismatchError("sample dimension != sites dimension")
    with np.errstate(over="ignore", invalid="ignore"):
        sq = _sq_dists(sample.points, sites)
        rel = sq - sq[np.arange(len(sample)), labels][:, None]
        # as for cmon weights: nan, or +inf when a sum over m sites could overflow
        bound = m * np.maximum(rel.max(initial=0.0), -rel.min(initial=0.0))
    if not bound < np.inf:
        raise ValueError(
            "squared distances from sample points to sites, summed over up to m sites, "
            "overflow the float range"
        )
    c = np.full((m, m), np.inf)
    np.minimum.at(c, labels, rel)
    res = longest_paths(-c, source=None, tol=tol)
    if res.cycle is None:
        w = -res.dist
        return FitWeightsResult(feasible=True, weights=w - w.min())
    src = np.asarray(res.cycle)
    dst = np.roll(src, -1)
    tightest = np.where(labels[:, None] == src, rel[:, dst], np.inf).argmin(axis=0)
    witnesses = [
        Witness(
            kind="constraint",
            indices=(k, i, j),
            slack=float(rel[k, j]),
            detail=f"point {k} labeled {i} conflicts against site {j}",
        )
        for k, i, j in zip(tightest.tolist(), src.tolist(), dst.tolist())
    ]
    return FitWeightsResult(feasible=False, witnesses=witnesses)


def check_wmon_cells(
    sites, sample: LabeledSample, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Pairwise monotonicity across labels: for t in cell i and t' in
    cell j, require p_i . (t' - t) <= p_j . (t' - t)."""
    require_positive(tol)
    sites = _as_matrix(sites, "sites")
    if len(sample) and sample.labels.max() >= len(sites):
        raise ValueError("sample label exceeds site count")
    if len(sample) == 0:
        return CheckReport.from_witnesses([], {"tol": tol})
    if sample.points.shape[1] != sites.shape[1]:
        raise DimensionMismatchError("sample dimension != sites dimension")
    site_of = sites[sample.labels]  # (k, n)
    inner = site_of @ sample.points.T  # inner[a, b] = p_{label a} . t_b
    diag_own = np.einsum("ij,ij->i", site_of, sample.points)
    # slack for pair (a, b): (p_la - p_lb) . (t_b - t_a)
    slack = inner + inner.T - diag_own[:, None] - diag_own[None, :]
    labels = sample.labels
    mixed = labels[:, None] != labels[None, :]
    witnesses = mask_witnesses(
        "pair",
        np.triu(mixed & (slack > tol), 1),
        slack,
        lambda a, b: f"labels ({labels[a]}, {labels[b]}) break monotonicity",
    )
    return CheckReport.from_witnesses(witnesses, {"tol": tol})


def homothet_transform(
    diag: PowerDiagramSpec, alpha: float, p0
) -> PowerDiagramSpec:
    """Translate and positively scale the sites, recomputing weights so
    that every pairwise cell boundary -- and hence every label -- is
    preserved.

    With p'_r = alpha p_r + p0, choosing
        w'_r = alpha w_r + (alpha^2 - alpha) ||p_r||^2 + 2 alpha <p_r, p0>
    makes the new power cost an affine reparameterization of the old one
    (alpha times it plus a site-independent term), fixing the argmin.
    """
    if not 0 < alpha < math.inf:
        raise NonPositiveScaleError(f"scale must be positive and finite, got {alpha}")
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if len(p0) != diag.dim:
        raise DimensionMismatchError("offset dimension != diagram dimension")
    if not np.all(np.isfinite(p0)):
        raise ValueError(f"offset p0 must be finite, got {p0.tolist()}")
    sq = np.einsum("ij,ij->i", diag.sites, diag.sites)
    new_sites = alpha * diag.sites + p0
    new_weights = alpha * diag.weights + (alpha**2 - alpha) * sq + 2.0 * alpha * (
        diag.sites @ p0
    )
    return PowerDiagramSpec(sites=new_sites, weights=new_weights)


def check_level_set_convexity(
    sample: LabeledSample, eps: float = 1e-6
) -> CheckReport:
    """Sandwich test: a differently-labeled point lying (within ``eps``)
    strictly between two same-labeled points contradicts convexity of
    the level sets.  Necessary condition only; points within ``eps`` of
    a segment endpoint are not flagged since a cell boundary may pass
    arbitrarily close to the endpoints."""
    if len(sample) == 0:
        raise ValueError("sample must be nonempty")
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be nonnegative and finite, got {eps}")
    pts = sample.points
    labels = sample.labels
    k = len(sample)
    # diffs[b, c] = t_c - t_b; row a holds the segments leaving t_a
    diffs = pts[None, :, :] - pts[:, None, :]
    sq = np.vecdot(diffs, diffs)
    dist = np.sqrt(sq)
    witnesses = []
    for a in range(k):
        # (b, c): segment from t_a to t_b, candidate point t_c
        seg = diffs[a]
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.vecdot(seg[None, :, :], seg[:, None, :]) / sq[a][:, None]
            perp = seg[None, :, :] - tau[:, :, None] * seg[:, None, :]
            gap = np.sqrt(np.vecdot(perp, perp))
        same = labels == labels[a]
        hit = (
            ((np.arange(k) > a) & same & (sq[a] > 0.0))[:, None]
            & ~same[None, :]
            & (0.0 < tau)
            & (tau < 1.0)
            & (dist[a][None, :] > eps)
            & (dist > eps)
            & (gap <= eps)
        )
        witnesses += mask_witnesses(
            "sandwich",
            hit,
            eps - gap,
            lambda b, c: (
                f"label {labels[c]} point between two label {labels[a]} points"
            ),
            index=lambda b, c: (a, b, c),
        )
    return CheckReport.from_witnesses(witnesses, {"eps": eps})


def bregman_to_power(
    g: ConvexSpec, bregman_sites, grid: TypeSpace
) -> PowerDiagramSpec:
    """Convert a nearest-site diagram under the regret divergence of
    ``g`` into an ordinary power diagram.

    Site t_j maps to p_j = dG_{t_j} / 2 with weight
    ||dG_{t_j}||^2 / 4 - G*(dG_{t_j}); the conjugate is evaluated over
    ``grid``, which is exact whenever the grid contains the sites.
    """
    sites = _as_matrix(bregman_sites, "sites")
    duals = np.array([subgradient(g, t) for t in sites]).reshape(sites.shape)
    weights = np.vecdot(duals, duals) / 4.0 - conjugate(g, duals, grid)
    return PowerDiagramSpec(sites=duals / 2.0, weights=weights)
