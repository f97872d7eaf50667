"""The duality quadrangle: dual-report and dual-type scores.

Swapping the report for a dual vector gives the market/menu form
A(d, t) = <t, d> - G*(d); swapping the type gives A*(t, d) =
<t, d> - G(t).  Fenchel-Young ties the four corners together, and
subgradient membership is operationalized as Fenchel-Young equality
within tolerance rather than by symbolic subdifferentials.

Duals are priced as a batch by ``core.conjugate``, which evaluates G once
on the grid and is exact where the maximizer is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    CheckReport,
    ConvexSpec,
    TypeSpace,
    WitnessColumns,
    _as_matrix,
    _as_vector,
    _eval_rows,
    _overflow,
    _require_cells,
    conjugate,
    eval_convex,
    mask_witnesses,
    require_positive,
)
from .properties import LabeledSample

__all__ = [
    "dual_report_score",
    "dual_type_score",
    "biconjugate",
    "check_duality_identities",
    "Equilibrium",
    "elicitation_game_equilibria",
    "dual_property",
]

#: Fenchel-Young equality within this counts as subgradient membership.
EQUALITY_TOL = 1e-6


def dual_report_score(g: ConvexSpec, d, t, grid: TypeSpace) -> float:
    """Menu / market score for reporting the dual vector d: <t, d> - G*(d)."""
    d, t = _as_vector(d, "dual vector"), _as_vector(t, "type")
    return float(t @ d) - conjugate(g, d, grid)


def dual_type_score(g: ConvexSpec, t, d) -> float:
    """Score when the roles flip and d is the true object: <t, d> - G(t)."""
    d, t = _as_vector(d, "dual vector"), _as_vector(t, "type")
    return float(t @ d) - eval_convex(g, t)


def biconjugate(g: ConvexSpec, t, grid: TypeSpace, duals) -> float:
    """G**(t) by two nested conjugations: max over the dual grid of
    <t, d> - G*(d)."""
    t, duals = _as_vector(t, "point"), _as_matrix(duals, "duals")
    conjs = conjugate(g, duals, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        best = np.max(np.vecdot(duals, t) - conjs, keepdims=True)
    return float(_overflow(best, "the biconjugate", t[None])[0])


def check_duality_identities(
    g: ConvexSpec,
    grid: TypeSpace,
    duals,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Three identities over every (t, d) pair of grid x duals:

    (a) Fenchel-Young: G(t) + G*(d) >= <t, d>, slack above -tol;
    (b) A(d, t) - A*(t, d) equals G(t) - G*(d) within tol;
    (c) the mixed divergence G(t) + G*(d) - <t, d> agrees between its
        two evaluation orders within tol.

    With no duals there is no pair: a vacuous pass, every ``max_*`` 0.0.
    The check forms eight grid x duals arrays, which together may have at
    most ``MAX_MATRIX_CELLS`` cells; more raise ``ValueError`` once the
    conjugate, which takes one such array, is known.
    """
    require_positive(tol)
    duals = _as_matrix(duals, "duals")
    evals = _eval_rows(g, grid.points)
    if len(duals) == 0:
        maxima = ("max_fenchel_young_violation", "max_difference_violation", "max_divergence_gap")
        return CheckReport(WitnessColumns(), {"tol": tol, **dict.fromkeys(maxima, 0.0)})
    conjs = conjugate(g, duals, grid)
    k, n = len(grid), len(duals)
    _require_cells(8 * k, n, f"the duality identities, eight arrays of {k} grid points x {n} duals,")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        inner = grid.points @ duals.T  # inner[i, j] = <t_i, d_j>
        fy = evals[:, None] + conjs[None, :] - inner
        report_minus_type = (inner - conjs[None, :]) - (inner - evals[:, None])
        diff_identity = report_minus_type - (evals[:, None] - conjs[None, :])
        div_primal = (evals[:, None] + conjs[None, :]) - inner
        div_dual = (conjs[None, :] - inner) + evals[:, None]
        div_gap = div_primal - div_dual
    for terms in (diff_identity, div_gap):  # div_gap is not finite where fy is not
        _overflow(terms, "a duality identity", grid.points)

    witnesses = (
        mask_witnesses("fenchel-young", fy < -tol, -fy, "G(t) + G*(d) < <t, d>")
        + mask_witnesses(
            "difference",
            np.abs(diff_identity) > tol,
            np.abs(diff_identity),
            "A(d,t) - A*(t,d) != G(t) - G*(d)",
        )
        + mask_witnesses(
            "divergence-symmetry",
            np.abs(div_gap) > tol,
            np.abs(div_gap),
            "mixed divergences disagree",
        )
    )
    info = {
        "tol": tol,
        "max_fenchel_young_violation": float(max(0.0, -fy.min())),
        "max_difference_violation": float(np.abs(diff_identity).max()),
        "max_divergence_gap": float(np.abs(div_gap).max()),
    }
    return CheckReport(witnesses, info)


@dataclass
class Equilibrium:
    """A dual-optimal pair: d is a subgradient at t and vice versa, with
    the two players' equilibrium payoffs G(t) and G*(d)."""

    d_index: int
    t_index: int
    d: np.ndarray
    t: np.ndarray
    value_primal: float  # G(t)
    value_dual: float  # G*(d)


def elicitation_game_equilibria(
    g: ConvexSpec,
    t_grid: TypeSpace,
    d_grid,
    grid: TypeSpace,
    eq_tol: float = EQUALITY_TOL,
) -> List[Equilibrium]:
    """Pure equilibria of the two-player elicitation game on finite
    strategy grids: the pairs where Fenchel-Young holds with equality
    within ``eq_tol``.  Conjugates are evaluated over ``grid``.  G is
    evaluated on ``t_grid`` even with no duals, so a point outside the
    domain of G is an error, not an empty list of equilibria."""
    require_positive(eq_tol, "eq_tol")
    d_grid = _as_matrix(d_grid, "d_grid")
    evals = _eval_rows(g, t_grid.points)
    if len(d_grid) == 0:
        return []
    conjs = conjugate(g, d_grid, grid)
    n, k = len(d_grid), len(t_grid)
    _require_cells(n, k, f"the Fenchel-Young gaps of {n} duals at {k} types")
    with np.errstate(over="ignore", invalid="ignore"):
        inner = d_grid @ t_grid.points.T  # inner[j, i] = <d_j, t_i>
        gap = conjs[:, None] + evals[None, :] - inner
    _overflow(gap, "the Fenchel-Young gap", d_grid)
    return [
        Equilibrium(
            d_index=int(j),
            t_index=int(i),
            d=d_grid[j].copy(),
            t=t_grid.points[i].copy(),
            value_primal=float(evals[i]),
            value_dual=float(conjs[j]),
        )
        for j, i in np.argwhere(np.abs(gap) <= eq_tol)
    ]


def dual_property(sample: LabeledSample) -> dict:
    """Invert the type -> report relation into report -> list of types;
    insertion order follows first appearance, groups preserve order."""
    out: dict = {}
    for point, label in zip(sample.points, sample.labels):
        out.setdefault(int(label), []).append(point.copy())
    return {label: np.vstack(points) for label, points in out.items()}
