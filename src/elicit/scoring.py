"""Proper scoring rules and direct-revelation scores.

Constructors turn a convex function into per-outcome payoff tables (the
Gneiting-Raftery form) or into a direct affine score on a type space;
verifiers check properness / truthfulness on arbitrary finite report
sets, including non-convex ones, and the expert-separation thresholds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    DEFAULT_TOL,
    INTERIOR_EPS,
    MAX_MATRIX_CELLS,
    SIMPLEX_TOL,
    CheckReport,
    ConvexSpec,
    DimensionMismatchError,
    NegEntropy,
    ScoreTable,
    TypeSpace,
    UnreachableActionError,
    WitnessColumns,
    _as_distribution,
    _gain_scan,
    _grad_rows,
    _index,
    _number,
    _numbers,
    _overflow,
    _require_cells,
    _scan_pairs,
    _tangent_score,
    _whole_number,
    deviation_gains,
    eval_convex,
    require_positive,
)

__all__ = [
    "OutcomeScoreTable",
    "DecisionScoreSpec",
    "simplex_grid",
    "make_scoring_rule",
    "check_proper",
    "check_expert_separation",
    "make_decision_score",
    "make_direct_score",
    "check_truthful",
]


def simplex_grid(n_outcomes: int, denominator: int = 10) -> np.ndarray:
    """All distributions with entries i/denominator, lexicographic order.
    A grid of more than ``MAX_MATRIX_CELLS`` entries raises ``ValueError``
    before any row is built."""
    n_outcomes = _whole_number(n_outcomes, "n_outcomes")
    denominator = _whole_number(denominator, "denominator")
    if n_outcomes < 1 or denominator < 1:
        raise ValueError("need n_outcomes >= 1 and denominator >= 1")
    if n_outcomes == 1:
        return np.ones((1, 1))
    what = f"the simplex grid of {n_outcomes} outcomes at denominator {denominator}"
    # C(d + n - 1, k) rows, k = min(d, n - 1): at least n, d + 1 and C(2k, k), so
    # past these bounds too many to form, and to count
    k = min(denominator, n_outcomes - 1)
    if k >= 32 or max(n_outcomes, denominator) > MAX_MATRIX_CELLS:
        raise ValueError(f"{what} would take more than {8 * MAX_MATRIX_CELLS} bytes, the limit")
    rows = math.comb(denominator + n_outcomes - 1, k)
    _require_cells(rows, n_outcomes, what)
    # stars and bars: a row's n - 1 bars among d + n - 1 slots, in lexicographic order
    slots = range(denominator + n_outcomes - 1)
    bars = itertools.chain.from_iterable(itertools.combinations(slots, n_outcomes - 1))
    edges = np.full((rows, n_outcomes + 1), len(slots))
    edges[:, 0] = -1
    edges[:, 1:-1] = np.fromiter(bars, dtype=int, count=rows * (n_outcomes - 1)).reshape(rows, -1)
    return (np.diff(edges, axis=1) - 1) / denominator


@dataclass
class OutcomeScoreTable:
    """Per-outcome payoffs S(p, omega) for a finite set of report
    distributions.  -inf is allowed only where the report itself puts
    zero probability (regularity)."""

    reports: np.ndarray
    payoffs: np.ndarray

    def __post_init__(self):
        self.reports = _numbers(self.reports, "reports")
        self.payoffs = _numbers(self.payoffs, "payoffs", extended=True)
        if self.reports.ndim != 2 or self.payoffs.shape != self.reports.shape:
            raise DimensionMismatchError("reports and payoffs must be (m, n) alike")
        _as_distribution(self.reports, "report")
        bad = (self.payoffs == -np.inf) & (self.reports > SIMPLEX_TOL)
        if bad.any():  # the first bad entry in row-major order
            r, o = np.argwhere(bad)[0].tolist()
            raise ValueError(
                f"-inf payoff at outcome {o} carrying probability "
                f"{self.reports[r, o]} under report {r}"
            )

    @property
    def n_outcomes(self) -> int:
        return self.reports.shape[1]

    def __len__(self) -> int:
        return len(self.reports)

    def _beliefs(self, beliefs, what: str = "beliefs", simplex: bool = True) -> np.ndarray:
        """The rows of ``beliefs``, named ``what``, on the simplex if ``simplex``, checked
        for a beliefs x reports matrix of at most ``MAX_MATRIX_CELLS`` entries."""
        beliefs = _numbers(beliefs, what)
        if beliefs.shape == (0,):  # no beliefs
            beliefs = beliefs.reshape(0, self.n_outcomes)
        if beliefs.ndim != 2 or beliefs.shape[1] != self.n_outcomes:
            raise DimensionMismatchError("belief dimension != outcome count")
        if simplex:
            _as_distribution(beliefs, what)
        n = len(beliefs)
        _require_cells(n, len(self), f"the scores of {len(self)} reports under {n} beliefs")
        return beliefs

    def payoff_matrix(self, beliefs) -> np.ndarray:
        """Matrix E[b, q] = expected score of report q under belief row
        b, a distribution: the sum over outcomes, in order, of belief
        times payoff, where a zero belief, or one within SIMPLEX_TOL below
        zero, times a -inf payoff gives 0, and one -inf term makes the
        entry -inf."""
        beliefs = self._beliefs(beliefs)
        score = np.zeros((len(beliefs), len(self)))
        term = np.empty(score.shape)  # each outcome's terms, in turn
        sunk = np.zeros(score.shape, dtype=bool)
        hit = np.empty(score.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            for o in range(self.n_outcomes):
                prob = beliefs[:, o, None]
                payoff = self.payoffs[:, o]
                # zero, or rounding noise below zero on -inf
                void = (prob == 0.0) | (
                    (payoff == -np.inf) & (prob >= -SIMPLEX_TOL) & (prob < 0.0)
                )
                np.multiply(prob, payoff, out=term)
                np.copyto(term, 0.0, where=void)
                sunk |= np.equal(term, -np.inf, out=hit)
                score += term
        score[sunk] = -np.inf
        return score

    def distances(self, beliefs) -> np.ndarray:
        """Matrix F[b, q] = max-norm distance from belief row b, any
        numbers, to report q."""
        beliefs = self._beliefs(beliefs, simplex=False)
        far = np.zeros((len(beliefs), len(self)))
        for o in range(self.n_outcomes):
            np.maximum(far, np.abs(self.reports[:, o] - beliefs[:, o, None]), out=far)
        return far


def make_scoring_rule(g: ConvexSpec, reports: Sequence) -> OutcomeScoreTable:
    """Build the proper scoring rule generated by a convex function:
    S(p, omega) = G(p) + d_p[omega] - <d_p, p>.

    Negative-entropy reports on the simplex boundary have no finite
    subgradient; their rows come from the limit rule S(p, omega) =
    ln p(omega) with ln 0 = -inf, which is the same formula the
    interior rows reduce to.  A coordinate within SIMPLEX_TOL below 0
    is read as 0.
    """
    reports = _numbers(reports, "reports").copy()  # the table keeps it
    if len(reports) == 0:
        raise ValueError("at least one report is required")
    if reports.ndim != 2:
        raise DimensionMismatchError("reports must be the rows of a 2-D array")
    _as_distribution(reports, "report")
    payoffs = np.empty_like(reports)
    edge = (reports < INTERIOR_EPS).any(axis=1) & isinstance(g, NegEntropy)
    with np.errstate(divide="ignore"):
        payoffs[edge] = np.log(np.maximum(reports[edge], 0.0))
    inner = reports[~edge]
    d = _grad_rows(g, inner)
    with np.errstate(over="ignore", invalid="ignore"):  # the table rejects +inf and nan
        payoffs[~edge] = eval_convex(g, inner)[:, None] + d - np.vecdot(d, inner)[:, None]
    return OutcomeScoreTable(reports, payoffs)


def check_proper(
    table: OutcomeScoreTable,
    beliefs: Optional[Sequence] = None,
    strict: bool = False,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Properness over (belief, deviation) pairs.

    Each belief must match one of the table's report rows -- properness
    compares the truthful row against every listed report as deviation.
    ``beliefs=None`` checks all report rows against each other.  Strict
    mode additionally flags distinct reports that tie within ``tol``
    (such ties carry their near-zero slack as the witness).  A
    non-finite own score or an overflowing gain raises ValueError.

    The gains are formed in place in the beliefs x reports payoff matrix
    and scanned a block of rows at a time (``core._scan_pairs``); the
    max-norm distances, a second such matrix, are formed only with
    beliefs or in strict mode, the two readers of them.
    """
    require_positive(tol)
    belief_rows = table.reports if beliefs is None else table._beliefs(beliefs, "belief")
    truth = np.arange(len(table))
    if beliefs is not None or strict:  # the distances' only readers
        far = table.distances(belief_rows)
    if beliefs is not None:  # each belief's truthful report is the first it matches
        matched = far <= SIMPLEX_TOL
        lost = ~matched.any(axis=1)
        if lost.any():
            raise ValueError(
                f"belief {belief_rows[lost.argmax()].tolist()} does not match any report row"
            )
        truth = matched.argmax(axis=1) if len(table) else truth  # no reports, no beliefs
    gains = table.payoff_matrix(belief_rows)
    deviation_gains(gains, truth, axis=1, out=gains)

    def block(lo, hi):  # strict mode keeps the gains ahead and the ties at a distinct report
        return gains[lo:hi], (gains[lo:hi] > tol) | (far[lo:hi] > tol) if strict else None

    bound = np.nextafter(-tol, -np.inf) if strict else tol  # strict: every gain >= -tol
    scan = _scan_pairs(gains.shape, block, bound, own=truth)
    belief, report, gain = scan[:3]
    kind, detail = "deviation", "belief #%d prefers report %d"
    if strict:  # each witness picks its kind and detail template; a tie's
        ahead = gain > tol  # detail writes neither argument (%.0s)
        kind = (("tie", kind), ahead)
        detail = (("strictness fails: deviation ties%.0s%.0s", detail), ahead)
    index = np.column_stack((truth[belief], report))
    slack = np.where(0.0 > gain, 0.0, gain)  # the gain itself where it is ahead
    witnesses = WitnessColumns([((kind, ()), index, slack, (detail, (belief, report)))])
    return CheckReport(witnesses, {"tol": tol, "strict": strict})


def check_expert_separation(
    table: OutcomeScoreTable,
    p_in: Sequence,
    p_bar,
    delta_accept: float,
    delta_reject: float,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Informed beliefs must earn at least ``delta_accept``; the
    uninformed belief ``p_bar`` (witness index -1) at most
    ``delta_reject``, both finite.  A belief with no finite value, -inf
    under every report, or whose slack overflows the float range raises
    ``ValueError`` naming it."""
    require_positive(tol)
    delta_accept = _number(delta_accept, "delta_accept")
    delta_reject = _number(delta_reject, "delta_reject")
    beliefs = table._beliefs(list(p_in) + [p_bar], "belief")
    best = table.payoff_matrix(beliefs).max(axis=1)
    if not np.isfinite(best).all():
        b = int(np.isfinite(best).argmin())  # the first belief with no finite value
        name = "p_bar" if b == len(best) - 1 else f"belief {b}"
        raise ValueError(f"{name} scores {best[b]} at its best report: values must be finite")
    values, bar = best[:-1], best[-1:]
    low, high = np.flatnonzero(values < delta_accept - tol), bar[bar > delta_reject + tol]
    with np.errstate(over="ignore"):  # a slack beyond the float range is named below
        slack = np.concatenate([delta_accept - values[low], high - delta_reject])
    if not np.isfinite(slack).all():
        b = int(np.isfinite(slack).argmin())
        name = f"belief {low[b]}" if b < len(low) else "p_bar"
        raise ValueError(f"the slack of {name} overflows the float range")
    below = ("value %.6g below accept threshold", (values[low],))
    above = ("uninformed value %.6g above reject threshold", (high,))
    informed = ("informed", low[:, None], slack[: len(low)], below)
    uninformed = ("uninformed", np.full((len(high), 1), -1), slack[len(low) :], above)
    info = {"values_in": values.tolist(), "value_bar": float(bar[0]), "tol": tol}
    return CheckReport(WitnessColumns([informed, uninformed]), info)


@dataclass
class DecisionScoreSpec:
    """Action-conditional scoring table for a fixed decision rule.

    scores[k, i, o] pays the expert when action i is taken and outcome o
    realized after report k; rows with zero decision probability are
    unconstrained placeholders (zero) and recorded in ``unconstrained``.
    """

    n_actions: int
    n_outcomes: int
    reports: np.ndarray  # (m, n_actions, n_outcomes)
    decisions: np.ndarray  # (m, n_actions)
    scores: np.ndarray  # (m, n_actions, n_outcomes)
    unconstrained: list = field(default_factory=list)

    def expected_value(self, report_idx: int, belief_matrix) -> float:
        """V(Q, P) = sum_i,o D_i(Q) P[i, o] S_i,o(Q)."""
        P = _numbers(belief_matrix, "belief matrix")
        if P.shape != (self.n_actions, self.n_outcomes):
            raise DimensionMismatchError("belief matrix has wrong shape")
        i = _index(report_idx, len(self.decisions), "report index")
        d = self.decisions[i]
        return float(sum((d * np.vecdot(P, self.scores[i]))[d != 0.0].tolist(), 0.0))


def make_decision_score(
    g: ConvexSpec,
    decision_rule: Union[Callable, Sequence],
    reports: Sequence,
    tol: float = DEFAULT_TOL,
) -> DecisionScoreSpec:
    """Scores proper for a decision rule D:
    S_i,o(Q) = G(Q) - <G_Q, Q> + G_Q[i, o] / D_i(Q) when D_i(Q) > 0.

    The convex function acts on flattened action-by-outcome matrices.
    Its subgradient must vanish on actions the rule never takes after
    the given report (else :class:`UnreachableActionError`); those rows
    get placeholder zeros and are flagged unconstrained.
    """
    require_positive(tol)
    reports = _numbers(reports, "reports").copy()  # the table keeps it
    if len(reports) == 0:
        raise ValueError("at least one report matrix is required")
    if reports.ndim != 3:
        raise DimensionMismatchError("reports must be action-by-outcome matrices")
    m, n_actions, n_outcomes = reports.shape
    _as_distribution(reports, "report row")
    rule = [decision_rule(q) for q in reports] if callable(decision_rule) else decision_rule
    decisions = _numbers(rule, "decisions")
    if decisions.shape != (m, n_actions):
        raise DimensionMismatchError("one action distribution per report required")
    _as_distribution(decisions, "decision distribution")

    flat = reports.reshape(m, -1)
    d = _grad_rows(g, flat).reshape(reports.shape)  # raises for G's domain first
    live = decisions > INTERIOR_EPS
    stray = ~live & (np.abs(d).max(axis=2) > tol)
    if stray.any():
        k, i = np.argwhere(stray)[0].tolist()
        raise UnreachableActionError(
            f"report {k}: subgradient is nonzero on action {i} "
            f"which the decision rule never takes"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        base = eval_convex(g, flat) - (d * reports).reshape(m, -1).sum(axis=1)
        share = np.divide(d, decisions[:, :, None], out=np.zeros_like(d), where=live[:, :, None])
        scores = np.where(live[:, :, None], base[:, None, None] + share, 0.0)
    _overflow(scores, "the decision score", reports)
    unconstrained = [np.flatnonzero(~row).tolist() for row in live]
    return DecisionScoreSpec(
        n_actions=n_actions,
        n_outcomes=n_outcomes,
        reports=reports,
        decisions=decisions,
        scores=scores,
        unconstrained=unconstrained,
    )


def make_direct_score(g: ConvexSpec, ts: TypeSpace) -> ScoreTable:
    """Direct-revelation score A(r)(t) = G(r) + d_r(t - r), stored as
    linear part d_r and constant G(r) - <d_r, r>.  Truthful by the
    subgradient inequality."""
    return _tangent_score(g, _grad_rows(g, ts.points), ts.points)


def check_truthful(
    score: ScoreTable, ts: TypeSpace, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Exhaustive pairwise truthfulness, reports indexed by types.

    ``info["min_slack"]`` is the least margin by which a type prefers its
    own report over another one: 0.0 for a single type, and None when
    every deviation scores -inf."""
    require_positive(tol)
    if len(score) != len(ts):
        raise DimensionMismatchError("score table must have one report per type")
    scan = _gain_scan(score, ts, tol)  # gains[report, type]
    type_, report = scan.cols, scan.rows
    index = np.column_stack((type_, report))
    detail = ("type %d prefers report %d", (type_, report))
    witnesses = WitnessColumns([("deviation", index, scan.values, detail)])
    min_slack = 0.0 if len(ts) == 1 else None if scan.best == -np.inf else -scan.best
    return CheckReport(witnesses, {"tol": tol, "min_slack": min_slack})
