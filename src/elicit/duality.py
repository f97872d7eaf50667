"""The duality quadrangle: the Fenchel-Young gap between G and G*.

Swapping the report for a dual vector prices it at G*(d), the
market/menu form <t, d> - G*(d); swapping the type prices it at G(t),
the form <t, d> - G(t).  Both rest on one quantity, the Fenchel-Young gap
G(t) + G*(d) - <t, d>: never negative, and zero exactly when d is a
subgradient of G at t.  Subgradient membership is operationalized as
that gap being zero within tolerance rather than by symbolic
subdifferentials.  The identity check and the elicitation game read
the same duals x types array of gaps.

Duals are priced as a batch by ``core.conjugate``, which evaluates G once
on the grid and is exact where the maximizer is known.  That price is never
below max_i <t_i, d> - G(t_i), and :func:`check_duality_identities` (so
also ``duality-check``) reads the gaps on that same grid: each is at least
0 up to rounding, so the check cannot fail unless the conjugate is
computed too low, and its pass is a consistency report, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

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
    require_positive,
)

__all__ = [
    "biconjugate",
    "check_duality_identities",
    "Equilibrium",
    "elicitation_game_equilibria",
]

#: Fenchel-Young equality within this counts as subgradient membership.
EQUALITY_TOL = 1e-6


def biconjugate(g: ConvexSpec, t, grid: TypeSpace, duals) -> float:
    """G**(t) by two nested conjugations: max over the dual grid of
    <t, d> - G*(d)."""
    t, duals = _as_vector(t, "point"), _as_matrix(duals, "duals")
    conjs = conjugate(g, duals, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        best = np.max(np.vecdot(duals, t) - conjs, keepdims=True)
    return float(_overflow(best, "the biconjugate", t[None])[0])


def _fenchel_young_gaps(g: ConvexSpec, types: np.ndarray, duals: np.ndarray, grid: TypeSpace):
    """(G at the rows of ``types``, G* of the rows of ``duals`` over
    ``grid``, the duals x types gaps G*(d_j) + G(t_i) - <d_j, t_i>).
    G is evaluated on the types even with no duals."""
    evals = _eval_rows(g, types)
    if len(duals) == 0:
        return evals, np.empty(0), np.empty((0, len(types)))
    conjs = conjugate(g, duals, grid)
    n, k = len(duals), len(types)
    _require_cells(n, k, f"the Fenchel-Young gaps of {n} duals at {k} types")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        gap = conjs[:, None] + evals[None, :]
        gap -= duals @ types.T  # <d_j, t_i>
    return evals, conjs, _overflow(gap, "the Fenchel-Young gap", duals)


def check_duality_identities(
    g: ConvexSpec,
    grid: TypeSpace,
    duals,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Fenchel-Young over every (t, d) pair of grid x duals: the gap
    G(t) + G*(d) - <t, d> is at least -tol.  A witness (i, j) is a grid
    point t_i and a dual d_j whose gap is below -tol, with the amount
    below 0 as its slack.  With no duals there is no pair: a vacuous
    pass, with ``max_fenchel_young_violation`` 0.0.  The duals are priced
    over ``grid`` itself, so an honest conjugate passes whatever G is:
    only rounding, or a conjugate too low, can fail it."""
    require_positive(tol)
    duals = _as_matrix(duals, "duals")
    fy = _fenchel_young_gaps(g, grid.points, duals, grid)[2].T  # fy[i, j]: grid i, dual j
    i, j = np.nonzero(fy < -tol)  # row-major
    block = ("fenchel-young", np.column_stack((i, j)), -fy[i, j], "G(t) + G*(d) < <t, d>")
    info = {"tol": tol, "max_fenchel_young_violation": float(max(0.0, -fy.min(initial=0.0)))}
    return CheckReport(WitnessColumns([block]), info)


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
    evals, conjs, gap = _fenchel_young_gaps(g, t_grid.points, d_grid, grid)
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

