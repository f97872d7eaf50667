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
    eval_convex,
    ext_mul,
    mask_witnesses,
    require_extended_real,
    require_positive,
    subgradient,
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
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any(p < -SIMPLEX_TOL) or abs(float(p.sum()) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"{what} {p.tolist()} is not on the probability simplex")
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
        for p in self.reports:
            _as_distribution(p, "report")
        for r, row in enumerate(self.payoffs):
            for o, s in enumerate(row):
                require_extended_real(s, "payoff")
                if s == -np.inf and self.reports[r, o] > SIMPLEX_TOL:
                    raise ValueError(
                        f"-inf payoff at outcome {o} carrying probability "
                        f"{self.reports[r, o]} under report {r}"
                    )

    @property
    def n_outcomes(self) -> int:
        return self.reports.shape[1]

    def __len__(self) -> int:
        return len(self.reports)

    def find_report(self, p, tol: float = SIMPLEX_TOL) -> Optional[int]:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        for i, r in enumerate(self.reports):
            if np.max(np.abs(r - p)) <= tol:
                return i
        return None


def make_scoring_rule(g: ConvexSpec, reports: Sequence) -> OutcomeScoreTable:
    """Build the proper scoring rule generated by a convex function:
    S(p, omega) = G(p) + d_p[omega] - <d_p, p>.

    Negative-entropy reports on the simplex boundary have no finite
    subgradient; their rows come from the limit rule S(p, omega) =
    ln p(omega) with ln 0 = -inf, which is the same formula the
    interior rows reduce to.
    """
    rows = [_as_distribution(p, "report") for p in reports]
    if not rows:
        raise ValueError("at least one report is required")
    n = len(rows[0])
    payoffs = np.empty((len(rows), n))
    for k, p in enumerate(rows):
        if len(p) != n:
            raise DimensionMismatchError("all reports must share one outcome space")
        if isinstance(g, NegEntropy) and np.any(p < INTERIOR_EPS):
            with np.errstate(divide="ignore"):
                payoffs[k] = np.log(p)
            continue
        d = subgradient(g, p)
        payoffs[k] = eval_convex(g, p) + d - float(d @ p)
    return OutcomeScoreTable(np.vstack(rows), payoffs)


def expected_score(table: OutcomeScoreTable, report_idx: int, belief) -> float:
    """Expectation of a report's payoffs under ``belief``; outcomes with
    zero belief, or one within SIMPLEX_TOL below zero, contribute zero
    even against a -inf payoff."""
    belief = _as_distribution(belief, "belief")
    if len(belief) != table.n_outcomes:
        raise DimensionMismatchError("belief dimension != outcome count")
    total = 0.0
    for prob, payoff in zip(belief, table.payoffs[report_idx]):
        term = ext_mul(float(prob), float(payoff))
        if term == -np.inf:
            return -np.inf
        total += term
    return total


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
    (such ties carry their near-zero slack as the witness).  A belief
    whose own report scores a non-finite value raises ValueError.
    """
    require_positive(tol)
    if beliefs is None:
        truth = list(range(len(table)))
        belief_rows = table.reports
    else:
        truth, belief_rows = [], []
        for b in beliefs:
            b = _as_distribution(b, "belief")
            idx = table.find_report(b)
            if idx is None:
                raise ValueError(
                    f"belief {b.tolist()} does not match any report row"
                )
            truth.append(idx)
            belief_rows.append(b)
        belief_rows = np.reshape(belief_rows, (len(truth), table.n_outcomes))

    # score[b, q] = expected_score(table, q, belief b): the same sum in
    # the same outcome order, where one -inf term makes the score -inf
    n_beliefs, m = len(truth), len(table)
    score = np.zeros((n_beliefs, m))
    sunk = np.zeros((n_beliefs, m), dtype=bool)
    far = np.zeros((n_beliefs, m))  # max-norm distance, belief to report
    with np.errstate(invalid="ignore"):
        for o in range(table.n_outcomes):
            prob = belief_rows[:, o][:, None]
            payoff = table.payoffs[:, o][None, :]
            # as in ext_mul: zero, or rounding noise below zero on -inf
            void = (prob == 0.0) | (
                (payoff == -np.inf) & (prob >= -SIMPLEX_TOL) & (prob < 0.0)
            )
            term = np.where(void, 0.0, prob * payoff)
            sunk |= term == -np.inf
            score += term
            far = np.maximum(far, np.abs(table.reports[:, o][None, :] - prob))
        score[sunk] = -np.inf
        own = score[np.arange(n_beliefs), truth]
        if not np.all(np.isfinite(own)):
            raise ValueError("truthful reports must score finite values")
        gain = score - own[:, None]
    deviation = np.arange(m)[None, :] != np.asarray(truth)[:, None]
    ahead = deviation & (gain > tol)
    witnesses = mask_witnesses(
        "deviation",
        ahead,
        gain,
        lambda b, q: f"belief #{b} prefers report {q}",
        index=lambda b, q: (truth[b], q),
    )
    if strict:
        tied = deviation & ~ahead & (gain >= -tol) & (far > tol)
        ties = mask_witnesses(
            "tie",
            tied,
            np.where(0.0 > gain, 0.0, gain),
            "strictness fails: deviation ties",
            index=lambda b, q: (truth[b], q),
        )
        # interleave both kinds in (belief, report) order
        order = np.argsort(
            np.concatenate([np.flatnonzero(ahead), np.flatnonzero(tied)]),
            kind="stable",
        )
        merged = witnesses + ties
        witnesses = [merged[k] for k in order]
    return CheckReport.from_witnesses(witnesses, {"tol": tol, "strict": strict})


def value_function(table: OutcomeScoreTable, belief) -> float:
    """Best achievable expected score under ``belief``."""
    return max(expected_score(table, r, belief) for r in range(len(table)))


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
    witnesses = []
    values = []
    for i, p in enumerate(p_in):
        v = value_function(table, p)
        values.append(v)
        if v < delta_accept - tol:
            witnesses.append(
                Witness(
                    kind="informed",
                    indices=(i,),
                    slack=float(delta_accept - v),
                    detail=f"value {v:.6g} below accept threshold",
                )
            )
    v_bar = value_function(table, p_bar)
    if v_bar > delta_reject + tol:
        witnesses.append(
            Witness(
                kind="uninformed",
                indices=(-1,),
                slack=float(v_bar - delta_reject),
                detail=f"uninformed value {v_bar:.6g} above reject threshold",
            )
        )
    info = {"values_in": values, "value_bar": v_bar, "tol": tol}
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
        total = 0.0
        for i in range(self.n_actions):
            di = float(self.decisions[report_idx, i])
            if di == 0.0:
                continue
            total += di * float(P[i] @ self.scores[report_idx, i])
        return total


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
    mats = [np.asarray(q, dtype=float) for q in reports]
    if not mats:
        raise ValueError("at least one report matrix is required")
    shape = mats[0].shape
    if len(shape) != 2:
        raise DimensionMismatchError("reports must be action-by-outcome matrices")
    n_actions, n_outcomes = shape
    for q in mats:
        if q.shape != shape:
            raise DimensionMismatchError("all report matrices must share a shape")
        for row in q:
            _as_distribution(row, "report row")

    if callable(decision_rule):
        decisions = np.asarray([decision_rule(q) for q in mats], dtype=float)
    else:
        decisions = np.asarray(list(decision_rule), dtype=float)
    if decisions.shape != (len(mats), n_actions):
        raise DimensionMismatchError("one action distribution per report required")
    for row in decisions:
        _as_distribution(row, "decision distribution")

    scores = np.zeros((len(mats), n_actions, n_outcomes))
    unconstrained = []
    for k, q in enumerate(mats):
        flat = q.reshape(-1)
        gq = eval_convex(g, flat)
        d = subgradient(g, flat).reshape(n_actions, n_outcomes)
        base = gq - float(np.sum(d * q))
        dead = []
        for i in range(n_actions):
            di = float(decisions[k, i])
            if di <= INTERIOR_EPS:
                if np.max(np.abs(d[i])) > tol:
                    raise UnreachableActionError(
                        f"report {k}: subgradient is nonzero on action {i} "
                        f"which the decision rule never takes"
                    )
                dead.append(i)
                continue
            scores[k, i] = base + d[i] / di
        unconstrained.append(dead)
    return DecisionScoreSpec(
        n_actions=n_actions,
        n_outcomes=n_outcomes,
        reports=np.stack(mats),
        decisions=decisions,
        scores=scores,
        unconstrained=unconstrained,
    )


def make_direct_score(g: ConvexSpec, ts: TypeSpace) -> ScoreTable:
    """Direct-revelation score A(r)(t) = G(r) + d_r(t - r), stored as
    linear part d_r and constant G(r) - <d_r, r>.  Truthful by the
    subgradient inequality."""
    linear = np.empty((len(ts), ts.dim))
    constant = np.empty(len(ts))
    for i, t in enumerate(ts.points):
        d = subgradient(g, t)
        linear[i] = d
        constant[i] = eval_convex(g, t) - float(d @ t)
    return ScoreTable(reports=list(range(len(ts))), linear=linear, constant=constant)


def check_truthful(
    score: ScoreTable, ts: TypeSpace, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Exhaustive pairwise truthfulness, reports indexed by types."""
    require_positive(tol)
    if len(score) != len(ts):
        raise DimensionMismatchError("score table must have one report per type")
    values = score.payoff_matrix(ts)
    truthful = np.diag(values)
    if not np.all(np.isfinite(truthful)):
        raise ValueError("truthful reports must score finite values")
    gains = values - truthful[None, :]
    witnesses = mask_witnesses(
        "deviation",
        (gains > tol) & ~np.eye(len(ts), dtype=bool),
        gains,
        lambda r, i: f"type {i} prefers report {r}",
        index=lambda r, i: (i, r),
    )
    min_slack = float(-gains[~np.eye(len(ts), dtype=bool)].max()) if len(ts) > 1 else 0.0
    return CheckReport.from_witnesses(witnesses, {"tol": tol, "min_slack": min_slack})
