"""Dense Phase-I simplex for linear feasibility systems A x <= b.

Desk-scale only: the tableau is dense and pivoting follows Bland's rule,
trading speed for guaranteed termination.  Infeasibility comes with a
Farkas certificate y >= 0, y^T A = 0, y^T b < 0 whose support names an
irreducible conflicting subset of constraints.  No library code calls
it; the weight-fitting tests use it as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ElicitError, _numbers

__all__ = ["FeasibilityResult", "feasible_point"]


@dataclass
class FeasibilityResult:
    feasible: bool
    x: Optional[np.ndarray] = None
    farkas: Optional[np.ndarray] = None  # multipliers per constraint row
    iterations: int = 0


def feasible_point(A, b, tol: float = 1e-9, max_iter: int = 100_000) -> FeasibilityResult:
    """Find any x with A x <= b (x free), or a Farkas certificate.

    Free variables are split x = x+ - x-; every row gets a slack and an
    artificial, and Phase-I minimizes the artificial sum from the
    all-artificial basis.  Past ``max_iter`` pivots, or with no pivot
    row, it raises :class:`ElicitError`: no verdict.
    """
    A = _numbers(A, "A")
    b = _numbers(b, "b").reshape(-1)
    if A.ndim != 2 or A.shape[0] != len(b):
        raise ValueError("A must be (m, n) with one b entry per row")
    m, n = A.shape
    if m == 0:
        return FeasibilityResult(feasible=True, x=np.zeros(n))

    # rows scaled to nonnegative rhs; columns: x+, x-, slack, artificial
    sigma = np.where(b < 0, -1.0, 1.0)
    As = A * sigma[:, None]
    bs = b * sigma
    ncols = 2 * n + 2 * m
    T = np.zeros((m, ncols + 1))
    T[:, :n] = As
    T[:, n : 2 * n] = -As
    T[:, 2 * n : 2 * n + m] = np.diag(sigma)
    T[:, 2 * n + m : ncols] = np.eye(m)
    T[:, ncols] = bs
    basis = [2 * n + m + i for i in range(m)]

    # objective row: minimize sum of artificials, in reduced form
    obj = np.zeros(ncols + 1)
    art = slice(2 * n + m, ncols)
    obj[art] = 1.0
    obj -= T.sum(axis=0)  # price out the initial basis

    iterations = 0
    while True:
        entering = -1
        for j in range(ncols):  # Bland: lowest index with negative reduced cost
            if obj[j] < -tol:
                entering = j
                break
        if entering < 0:
            break
        if iterations >= max_iter:
            raise ElicitError(f"no verdict within max_iter={max_iter} pivots")
        ratios = np.full(m, np.inf)
        col = T[:, entering]
        ok = col > tol
        ratios[ok] = T[ok, ncols] / col[ok]
        if not ok.any():  # Phase-I is bounded, so only rounding gets here
            raise ElicitError(f"no pivot row for column {entering}: no verdict")
        best = ratios.min()
        # Bland tie-break: smallest basis variable index among minimal ratios
        leave = min(
            (basis[i], i) for i in range(m) if ok[i] and ratios[i] <= best + 1e-15
        )[1]
        pivot = T[leave, entering]
        T[leave] /= pivot
        for i in range(m):
            if i != leave and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[leave]
        obj -= obj[entering] * T[leave]
        basis[leave] = entering
        iterations += 1

    objective = -float(obj[ncols])  # reduced form stores -z in the rhs slot
    if objective <= tol:
        x = np.zeros(n)
        for i, var in enumerate(basis):
            val = T[i, ncols]
            if var < n:
                x[var] += val
            elif var < 2 * n:
                x[var - n] -= val
        return FeasibilityResult(feasible=True, x=x, iterations=iterations)

    # infeasible: simplex multipliers live in the artificial reduced costs
    y_bar = 1.0 - obj[art]
    farkas = -sigma * y_bar
    farkas = np.where(np.abs(farkas) <= tol, 0.0, farkas)
    return FeasibilityResult(feasible=False, farkas=farkas, iterations=iterations)
