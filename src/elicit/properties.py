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
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    CheckReport,
    ConvexSpec,
    DimensionMismatchError,
    NonPositiveScaleError,
    ScoreTable,
    TypeSpace,
    WitnessColumns,
    _BLOCK_CELLS,
    _as_matrix,
    _as_vector,
    _grad_rows,
    _indices,
    _number,
    _require_cells,
    _require_distinct,
    _require_summable,
    _tangent_score,
    conjugate,  # not called here; perfbench's tracer binds it at this import site
    require_positive,
)
from .monotone import _cmon_weights, _wmon_report, longest_paths

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
        self.weights = _as_vector(self.weights, "weights")
        if len(self.sites) == 0:
            raise ValueError("diagram needs at least one site")
        if len(self.weights) != len(self.sites):
            raise DimensionMismatchError("one weight per site required")
        _require_distinct(self.sites, "site")

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
        self.labels = _indices(self.labels, "labels")
        if len(self.labels) != len(self.points):
            raise DimensionMismatchError("one label per point required")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class Labeling:
    """Power-cell labels with boundary ties recorded."""

    labels: np.ndarray
    ties: np.ndarray


def _sq_dists(points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    k, m, dim = len(points), len(sites), sites.shape[1]
    _require_cells(k, m * dim, f"the differences of {k} points and {m} sites")
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


def _on_sites(sites, sample: LabeledSample) -> tuple:
    """(sites, points): ``sites`` as a matrix, and the sample's points, each
    labeled with a site's index, in the sites' dimension (even if none)."""
    sites = _as_matrix(sites, "sites")
    _indices(sample.labels, "labels", len(sites))
    points = sample.points if len(sample) else np.empty((0, sites.shape[1]))
    if points.shape[1] != sites.shape[1]:
        raise DimensionMismatchError("sample dimension != sites dimension")
    return sites, points


@dataclass
class FitWeightsResult:
    """Outcome of weight fitting; infeasibility is a certified answer,
    not an error, and carries a site cycle of conflicting constraints."""

    feasible: bool
    weights: Optional[np.ndarray] = None
    witnesses: WitnessColumns = field(default_factory=WitnessColumns)


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
    sites, points = _on_sites(sites, sample)
    m, labels = len(sites), sample.labels
    with np.errstate(over="ignore", invalid="ignore"):
        sq = _sq_dists(points, sites)
        rel = sq - sq[np.arange(len(sample)), labels][:, None]
        what = "squared distances from sample points to sites, summed over up to m sites,"
        _require_summable(rel, m, what)
    _require_cells(m, m, f"the site graph of {m} sites")
    c = np.full((m, m), np.inf)
    np.minimum.at(c, labels, rel)
    res = longest_paths(-c, source=None, tol=tol)
    if res.cycle is None:  # w = -dist, shifted to min 0; dist >= 0 from the virtual source
        return FitWeightsResult(feasible=True, weights=res.dist.max(initial=0.0) - res.dist)
    src = np.asarray(res.cycle)
    dst = np.roll(src, -1)
    tightest = np.where(labels[:, None] == src, rel[:, dst], np.inf).argmin(axis=0)
    conflicts = ("point %d labeled %d conflicts against site %d", (tightest, src, dst))
    witnesses = WitnessColumns(
        [("constraint", np.stack([tightest, src, dst], axis=1), rel[tightest, dst], conflicts)]
    )
    return FitWeightsResult(feasible=False, witnesses=witnesses)


def check_wmon_cells(
    sites, sample: LabeledSample, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Pairwise monotonicity across labels: for t in cell i and t' in
    cell j, require p_i . (t' - t) <= p_j . (t' - t): ``check_wmon`` with
    functionals p_label, over the pairs of different labels."""
    require_positive(tol)
    sites, points = _on_sites(sites, sample)
    w = _cmon_weights(points, sites[sample.labels])
    return _wmon_report(w, tol, "labels (%d, %d) break monotonicity", labels=sample.labels)


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
    if not 0 < _number(alpha, "alpha", None) < math.inf:
        raise NonPositiveScaleError(f"scale must be positive and finite, got {alpha}")
    p0 = _as_vector(p0, "offset p0")
    if len(p0) != diag.dim:
        raise DimensionMismatchError("offset dimension != diagram dimension")
    with np.errstate(over="ignore", invalid="ignore"):  # the new diagram rejects inf and nan
        sq = np.einsum("ij,ij->i", diag.sites, diag.sites)
        new_sites = alpha * diag.sites + p0
        new_weights = alpha * diag.weights + (alpha**2 - alpha) * sq + 2.0 * alpha * (
            diag.sites @ p0
        )
    return PowerDiagramSpec(sites=new_sites, weights=new_weights)


#: The sandwich filter's relative and absolute slack, 1 + delta and eta
#: of :func:`check_level_set_convexity`, whose docstring shows that they
#: let every witness through.
_FILTER_REL = 1.0 + 2.0**-20
_FILTER_ABS = 2.0**-512


def check_level_set_convexity(
    sample: LabeledSample, eps: float = 1e-6
) -> CheckReport:
    """Sandwich test: a differently-labeled point lying (within ``eps``)
    strictly between two same-labeled points contradicts convexity of
    the level sets.  Necessary condition only; points within ``eps`` of
    a segment endpoint are not flagged since a cell boundary may pass
    arbitrarily close to the endpoints.

    The segments are the pairs a < b of equal label and nonzero length.
    A point c of another label is a witness (a, b, c) when, in floats,
    its projection on the segment's line falls strictly inside it,
    0 < tau < 1, at a distance gap <= eps, and its distances to both
    ends exceed eps; its slack is eps - gap.  Witnesses come in
    row-major (a, b, c) order.  Squared distances between points that
    overflow the float range raise ``ValueError``.

    *Filter.*  A point whose projection falls inside a segment at
    distance gap from it has |ac| + |cb| <= |ab| + 2 gap.  So from the
    k x k distances alone, each segment keeps only the points c of other
    labels with

        dist[a, c] + dist[b, c] <= (dist[a, b] + 2 eps) (1 + delta) + eta,

    delta = 2^-20, eta = 2^-512, and the projection runs on these
    survivors only.  A projection's floats do not depend on which other
    triples are projected with it, and the witnesses are sorted into
    row-major order, so they and their slacks are those of projecting
    every point on every segment.  The points are sorted by label, so a
    segment of label L never reads the points of L: the work is the sum
    over labels of C(|M_L|, 2) (k - |M_L|) filter cells, M_L the points
    of label L, in blocks of at most ``core._BLOCK_CELLS``, plus one
    projection per survivor.  A sample of one label only lists its
    segments.

    *Why no witness is filtered out.*  Let u = 2^-53, r, s and w the
    float differences t_c - t_a, t_b - t_a and t_c - t_b, and |.| exact
    norms.  The differences are finite (else a squared distance
    overflows) and each coordinate is rounded once, so |w - (r - s)| <=
    u (1 + 2u) (|r| + |s| + |w|).  The ``MAX_MATRIX_CELLS`` refusal
    leaves three points at most 2^26 / 9 < 2^23 coordinates, so a float
    norm sqrt(v . v), rounded at most n + 2 times and with at most n
    underflows of 2^-1075, lies within (1 +- rho) |v| +- omega, rho =
    2^-29 and omega = 2^-525.  The float tau of a witness is in (0, 1)
    and its float perpendicular is fl(r - fl(tau s)), so p = r - tau s
    has |p| <= (1 + 2 rho) gap + 2 omega + u |s|, and exactly |r| + |r -
    s| <= |s| + 2 |p|.  Together

        dist[a, c] + dist[b, c] <= (1 + 8 rho) (dist[a, b] + 2 eps) + 8 omega,

    and the filter's own four roundings take less than delta over 8 rho
    and eta over 8 omega.  A 2 eps or a product that overflows reads inf
    and keeps the point.
    """
    if len(sample) == 0:
        raise ValueError("sample must be nonempty")
    eps = _number(eps, "eps", "nonnegative and finite")
    pts = sample.points
    labels = sample.labels
    k = len(sample)
    _require_cells(k, k * pts.shape[1], f"the differences of {k} sample points")
    # diffs[a, c] = t_c - t_a
    with np.errstate(over="ignore"):
        diffs = pts[None, :, :] - pts[:, None, :]
        sq = np.vecdot(diffs, diffs)
    if not (sq < np.inf).all():
        raise ValueError("squared distances between sample points overflow the float range")
    dist = np.sqrt(sq)
    # the points sorted by label, stably: label L's are by[lo:hi], ascending
    by = np.argsort(labels, kind="stable")
    sorted_labels = labels[by]
    sorted_dist = dist[np.ix_(by, by)]
    # the segments p < q in sorted positions, label by label, row-major in each
    same = (sorted_labels[:, None] == sorted_labels) & (sorted_dist > 0.0)
    p, q = np.nonzero(np.triu(same, 1))
    with np.errstate(over="ignore"):  # an overflow reads inf and keeps the point
        reach = (sorted_dist[p, q] + 2.0 * eps) * _FILTER_REL + _FILTER_ABS
    starts = np.flatnonzero(np.diff(sorted_labels, prepend=-1)).tolist()
    found = []
    for lo, hi in zip(starts, starts[1:] + [k]):
        first, last = np.searchsorted(p, [lo, hi]).tolist()
        if first == last or hi - lo == k:
            continue
        other = np.concatenate((by[:lo], by[hi:]))
        across = np.concatenate((sorted_dist[lo:hi, :lo], sorted_dist[lo:hi, hi:]), axis=1)
        step = max(1, _BLOCK_CELLS // len(other))
        for start in range(first, last, step):
            rows = np.s_[start : min(start + step, last)]
            i, j = p[rows], q[rows]
            seg, c = np.nonzero(across[i - lo] + across[j - lo] <= reach[rows, None])
            if len(seg):
                found.append(_sandwiches(pts, by[i[seg]], by[j[seg]], other[c], sq, dist, eps))
    if not found:
        return CheckReport(WitnessColumns(), {"eps": eps})
    a, b, c, slack = map(np.concatenate, zip(*found))
    order = np.argsort((a * k + b) * k + c)
    a, b, c = a[order], b[order], c[order]
    detail = ("label %d point between two label %d points", (labels[c], labels[a]))
    block = ("sandwich", np.stack([a, b, c], axis=1), slack[order], detail)
    return CheckReport(WitnessColumns([block]), {"eps": eps})


def _sandwiches(pts, a, b, c, sq, dist, eps):
    """The triples (a, b, c) among those given whose point t_c projects
    strictly inside the segment from t_a to t_b, within ``eps`` of it and
    farther than ``eps`` from both ends, and their slacks eps - gap."""
    seg = pts[b] - pts[a]
    rel = pts[c] - pts[a]
    # a huge tau only arises outside (0, 1), where no witness is taken
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tau = np.vecdot(rel, seg) / sq[a, b]
        perp = np.subtract(rel, tau[:, None] * seg, out=rel)
        gap = np.sqrt(np.vecdot(perp, perp))
    hit = (0.0 < tau) & (tau < 1.0) & (dist[a, c] > eps) & (dist[b, c] > eps) & (gap <= eps)
    return a[hit], b[hit], c[hit], eps - gap[hit]


def bregman_to_power(
    g: ConvexSpec, bregman_sites, grid: Optional[TypeSpace] = None
) -> PowerDiagramSpec:
    """Convert a nearest-site diagram under the regret divergence of
    ``g`` into an ordinary power diagram.

    Site t_j maps to p_j = d_j / 2 with weight ||d_j||^2 / 4 + c_j, for
    the tangent score <d_j, t> + c_j at t_j (d_j = dG_{t_j}): the power
    distance is ||t||^2 minus that score.  By Fenchel-Young equality
    c_j = G(t_j) - <d_j, t_j> = -G*(d_j) exactly; ``grid`` is ignored.
    """
    sites = _as_matrix(bregman_sites, "sites")
    duals = _grad_rows(g, sites)
    constant = _tangent_score(g, duals, sites).constant
    with np.errstate(over="ignore", invalid="ignore"):  # the diagram rejects inf and nan
        weights = np.vecdot(duals, duals) / 4.0 + constant
    return PowerDiagramSpec(sites=duals / 2.0, weights=weights)
