"""Proper scoring rules and direct-revelation scores.

Constructors turn a convex function into per-outcome payoff tables (the
Gneiting-Raftery form) or into a direct affine score on a type space;
verifiers check properness / truthfulness on arbitrary finite report
sets, including non-convex ones, and the expert-separation thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .core import (
    DEFAULT_TOL,
    INTERIOR_EPS,
    SIMPLEX_TOL,
    CheckReport,
    ConvexSpec,
    DimensionMismatchError,
    NegEntropy,
    ScoreTable,
    TypeSpace,
    UnreachableActionError,
    Witness,
    _grad_rows,
    _off_simplex,
    deviation_gains,
    eval_convex,
    mask_witnesses,
    require_extended_real,
    require_positive,
)

__all__ = [
    "OutcomeScoreTable",
    "DecisionScoreSpec",
    "simplex_grid",
    "make_scoring_rule",
    "expected_score",
    "check_proper",
    "check_expert_separation",
    "make_decision_score",
    "make_direct_score",
    "check_truthful",
]


def _as_distribution(p, what: str = "distribution") -> np.ndarray:
    """``p`` as an array whose rows (along the last axis) each lie on
    the probability simplex; the first one that does not is named."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    off = _off_simplex(p)
    if off.any():
        bad = p.reshape(-1, p.shape[-1])[off.reshape(-1).argmax()]
        raise ValueError(f"{what} {bad.tolist()} is not on the probability simplex")
    return p


def simplex_grid(n_outcomes: int, denominator: int = 10) -> np.ndarray:
    """All distributions with entries i/denominator, lexicographic order."""
    if n_outcomes < 1 or denominator < 1:
        raise ValueError("need n_outcomes >= 1 and denominator >= 1")
    rows: List[List[int]] = []

    def fill(prefix: List[int], remaining: int, slots: int) -> None:
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for head in range(remaining + 1):
            fill(prefix + [head], remaining - head, slots - 1)

    fill([], denominator, n_outcomes)
    return np.asarray(rows, dtype=float) / denominator


@dataclass
class OutcomeScoreTable:
    """Per-outcome payoffs S(p, omega) for a finite set of report
    distributions.  -inf is allowed only where the report itself puts
    zero probability (regularity)."""

    reports: np.ndarray
    payoffs: np.ndarray

    def __post_init__(self):
        self.reports = np.asarray(self.reports, dtype=float)
        self.payoffs = np.asarray(self.payoffs, dtype=float)
        if self.reports.ndim != 2 or self.payoffs.shape != self.reports.shape:
            raise DimensionMismatchError("reports and payoffs must be (m, n) alike")
        _as_distribution(self.reports, "report")
        bad = ~(self.payoffs < np.inf) | (self.payoffs == -np.inf) & (self.reports > SIMPLEX_TOL)
        if bad.any():  # the first bad entry in row-major order
            r, o = np.argwhere(bad)[0].tolist()
            require_extended_real(self.payoffs[r, o], "payoff")
            raise ValueError(
                f"-inf payoff at outcome {o} carrying probability "
                f"{self.reports[r, o]} under report {r}"
            )

    @property
    def n_outcomes(self) -> int:
        return self.reports.shape[1]

    def __len__(self) -> int:
        return len(self.reports)

    def _beliefs(self, beliefs) -> np.ndarray:
        beliefs = np.asarray(beliefs, dtype=float)
        if beliefs.ndim != 2 or beliefs.shape[1] != self.n_outcomes:
            raise DimensionMismatchError("belief dimension != outcome count")
        return beliefs

    def payoff_matrix(self, beliefs) -> np.ndarray:
        """Matrix E[b, q] = expected score of report q under belief row
        b: the sum over outcomes, in order, of belief times payoff, where
        a zero belief, or one within SIMPLEX_TOL below zero, times a -inf
        payoff gives 0, and one -inf term makes the entry -inf."""
        beliefs = self._beliefs(beliefs)
        score = np.zeros((len(beliefs), len(self)))
        sunk = np.zeros(score.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            for o in range(self.n_outcomes):
                prob = beliefs[:, o, None]
                payoff = self.payoffs[:, o]
                # zero, or rounding noise below zero on -inf
                void = (prob == 0.0) | (
                    (payoff == -np.inf) & (prob >= -SIMPLEX_TOL) & (prob < 0.0)
                )
                term = np.where(void, 0.0, prob * payoff)
                sunk |= term == -np.inf
                score += term
        score[sunk] = -np.inf
        return score

    def distances(self, beliefs) -> np.ndarray:
        """Matrix F[b, q] = max-norm distance from belief row b to report q."""
        beliefs = self._beliefs(beliefs)
        far = np.zeros((len(beliefs), len(self)))
        for o in range(self.n_outcomes):
            np.maximum(far, np.abs(self.reports[:, o] - beliefs[:, o, None]), out=far)
        return far

    def find_report(self, p, tol: float = SIMPLEX_TOL) -> Optional[int]:
        """Index of the first report within ``tol`` of ``p`` in max norm."""
        hits = np.flatnonzero(self.distances(np.reshape(p, (1, -1)))[0] <= tol)
        return int(hits[0]) if hits.size else None


def make_scoring_rule(g: ConvexSpec, reports: Sequence) -> OutcomeScoreTable:
    """Build the proper scoring rule generated by a convex function:
    S(p, omega) = G(p) + d_p[omega] - <d_p, p>.

    Negative-entropy reports on the simplex boundary have no finite
    subgradient; their rows come from the limit rule S(p, omega) =
    ln p(omega) with ln 0 = -inf, which is the same formula the
    interior rows reduce to.  A coordinate within SIMPLEX_TOL below 0
    is read as 0.
    """
    reports = np.array(reports, dtype=float)  # a copy: the table keeps it
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
    payoffs[~edge] = eval_convex(g, inner)[:, None] + d - np.vecdot(d, inner)[:, None]
    return OutcomeScoreTable(reports, payoffs)


def expected_score(table: OutcomeScoreTable, report_idx: int, belief) -> float:
    """Expectation of a report's payoffs under ``belief``; outcomes with
    zero belief, or one within SIMPLEX_TOL below zero, contribute zero
    even against a -inf payoff."""
    belief = _as_distribution(belief, "belief")
    return float(table.payoff_matrix(belief[None])[0, report_idx])


def _belief_rows(beliefs, n_outcomes: int) -> np.ndarray:
    """The beliefs, each checked in order, as the rows of one array."""
    rows = []
    for b in beliefs:
        b = _as_distribution(b, "belief")
        if len(b) != n_outcomes:
            raise DimensionMismatchError("belief dimension != outcome count")
        rows.append(b)
    return np.reshape(rows, (len(rows), n_outcomes))


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
    """
    require_positive(tol)
    belief_rows = table.reports if beliefs is None else _belief_rows(beliefs, table.n_outcomes)
    far = table.distances(belief_rows)  # also the strictness mask
    truth = np.arange(len(table))
    if beliefs is not None:  # each belief's truthful report is the first it matches
        matched = far <= SIMPLEX_TOL
        lost = ~matched.any(axis=1)
        if lost.any():
            raise ValueError(
                f"belief {belief_rows[lost.argmax()].tolist()} does not match any report row"
            )
        truth = matched.argmax(axis=1) if len(table) else truth  # no reports, no beliefs
    gain = deviation_gains(table.payoff_matrix(belief_rows), truth, axis=1)
    deviation = np.arange(len(table))[None, :] != truth[:, None]
    ahead = deviation & (gain > tol)
    witnesses = mask_witnesses(
        "deviation",
        ahead,
        gain,
        lambda b, q: f"belief #{b} prefers report {q}",
        index=lambda b, q: (int(truth[b]), q),
    )
    if strict:
        tied = deviation & ~ahead & (gain >= -tol) & (far > tol)
        ties = mask_witnesses(
            "tie",
            tied,
            np.where(0.0 > gain, 0.0, gain),
            "strictness fails: deviation ties",
            index=lambda b, q: (int(truth[b]), q),
        )
        # interleave both kinds in (belief, report) order
        order = np.argsort(
            np.concatenate([np.flatnonzero(ahead), np.flatnonzero(tied)]),
            kind="stable",
        )
        merged = witnesses + ties
        witnesses = [merged[k] for k in order]
    return CheckReport.from_witnesses(witnesses, {"tol": tol, "strict": strict})


def check_expert_separation(
    table: OutcomeScoreTable,
    p_in: Sequence,
    p_bar,
    delta_accept: float,
    delta_reject: float,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Informed beliefs must earn at least ``delta_accept``; the
    uninformed belief ``p_bar`` at most ``delta_reject``."""
    require_positive(tol)
    beliefs = _belief_rows(list(p_in) + [p_bar], table.n_outcomes)
    best = table.payoff_matrix(beliefs).max(axis=1)
    values, v_bar = best[:-1], float(best[-1])
    witnesses = mask_witnesses(
        "informed",
        values < delta_accept - tol,
        delta_accept - values,
        lambda i: f"value {values[i]:.6g} below accept threshold",
    )
    if v_bar > delta_reject + tol:
        witnesses.append(
            Witness(
                kind="uninformed",
                indices=(-1,),
                slack=float(v_bar - delta_reject),
                detail=f"uninformed value {v_bar:.6g} above reject threshold",
            )
        )
    info = {"values_in": values.tolist(), "value_bar": v_bar, "tol": tol}
    return CheckReport.from_witnesses(witnesses, info)


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
        P = np.asarray(belief_matrix, dtype=float)
        if P.shape != (self.n_actions, self.n_outcomes):
            raise DimensionMismatchError("belief matrix has wrong shape")
        d = self.decisions[report_idx]
        return float(sum((d * np.vecdot(P, self.scores[report_idx]))[d != 0.0].tolist(), 0.0))


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
    reports = np.array(reports, dtype=float)  # a copy: the table keeps it
    if len(reports) == 0:
        raise ValueError("at least one report matrix is required")
    if reports.ndim != 3:
        raise DimensionMismatchError("reports must be action-by-outcome matrices")
    m, n_actions, n_outcomes = reports.shape
    _as_distribution(reports, "report row")
    if callable(decision_rule):
        decisions = np.asarray([decision_rule(q) for q in reports], dtype=float)
    else:
        decisions = np.asarray(list(decision_rule), dtype=float)
    if decisions.shape != (m, n_actions):
        raise DimensionMismatchError("one action distribution per report required")
    _as_distribution(decisions, "decision distribution")

    flat = reports.reshape(m, -1)
    d = _grad_rows(g, flat).reshape(reports.shape)  # raises for G's domain first
    base = eval_convex(g, flat) - (d * reports).reshape(m, -1).sum(axis=1)
    live = decisions > INTERIOR_EPS
    stray = ~live & (np.abs(d).max(axis=2) > tol)
    if stray.any():
        k, i = np.argwhere(stray)[0].tolist()
        raise UnreachableActionError(
            f"report {k}: subgradient is nonzero on action {i} "
            f"which the decision rule never takes"
        )
    share = np.divide(d, decisions[:, :, None], out=np.zeros_like(d), where=live[:, :, None])
    scores = np.where(live[:, :, None], base[:, None, None] + share, 0.0)
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
    d = _grad_rows(g, ts.points)
    constant = eval_convex(g, ts.points) - np.vecdot(d, ts.points)
    return ScoreTable(reports=list(range(len(ts))), linear=d, constant=constant)


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
    gains = deviation_gains(score.payoff_matrix(ts), np.arange(len(ts)), axis=0)
    witnesses = mask_witnesses(
        "deviation",
        (gains > tol) & ~np.eye(len(ts), dtype=bool),
        gains,
        lambda r, i: f"type {i} prefers report {r}",
        index=lambda r, i: (i, r),
    )
    best = float(gains[~np.eye(len(ts), dtype=bool)].max(initial=-np.inf))
    min_slack = 0.0 if len(ts) == 1 else None if best == -np.inf else -best
    return CheckReport.from_witnesses(witnesses, {"tol": tol, "min_slack": min_slack})
