"""Differential tests: every verifier that builds its witnesses from a
boolean mask must print exactly what the explicit pair and triple loops
of ``helpers`` print, witness order, slacks and ``info`` included."""

import numpy as np
import pytest

from elicit import (
    LabeledSample,
    LinearFamily,
    NegEntropy,
    OutcomeScoreTable,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    check_duality_identities,
    check_level_set_convexity,
    check_local_truthful,
    check_proper,
    check_revenue_equivalence,
    check_subgradient_selection,
    check_truthful,
    check_wmon,
    check_wmon_cells,
    expected_score,
    jsonio,
    make_scoring_rule,
    simplex_grid,
    subgradient,
)
from helpers import (
    loop_check_level_set_convexity,
    loop_check_local_truthful,
    loop_check_proper,
    loop_check_revenue_equivalence,
    loop_check_subgradient_selection,
    loop_check_truthful,
    loop_check_wmon,
    loop_check_wmon_cells,
    loop_duality_witnesses,
    random_max_affine,
    random_typespace,
)

TRIALS = 25


def _family(rng, ts):
    return LinearFamily(rng.uniform(-2, 2, size=(len(ts), ts.dim)))


def _score(rng, n_reports, dim, neg_inf=()):
    constant = rng.uniform(-1, 1, size=n_reports)
    constant[list(neg_inf)] = -np.inf
    return ScoreTable(
        reports=list(range(n_reports)),
        linear=rng.uniform(-2, 2, size=(n_reports, dim)),
        constant=constant,
    )


def case_wmon(rng):
    ts = random_typespace(rng, int(rng.integers(1, 4)), max_points=25)
    fam = _family(rng, ts)
    return check_wmon(ts, fam), loop_check_wmon(ts, fam, 1e-9)


def case_subgradient_selection(rng):
    dim = int(rng.integers(1, 4))
    g = random_max_affine(rng, dim)
    ts = random_typespace(rng, dim, max_points=25)
    fam = _family(rng, ts)
    return (
        check_subgradient_selection(g, fam, ts),
        loop_check_subgradient_selection(g, fam, ts, 1e-9),
    )


def case_truthful(rng):
    ts = random_typespace(rng, int(rng.integers(1, 4)), max_points=25)
    score = _score(rng, len(ts), ts.dim)
    return check_truthful(score, ts), loop_check_truthful(score, ts, 1e-9)


def case_local_truthful(rng):
    # more reports than types, a permuted assignment, and -inf constants
    # on the reports no type sends
    ts = random_typespace(rng, int(rng.integers(1, 4)), max_points=25)
    n_reports = len(ts) + int(rng.integers(1, 5))
    report_of = rng.permutation(n_reports)[: len(ts)]
    unused = sorted(set(range(n_reports)) - set(report_of.tolist()))
    score = _score(rng, n_reports, ts.dim, neg_inf=unused)
    radius = float(rng.uniform(0.5, 3.0))
    return (
        check_local_truthful(score, ts, report_of, radius),
        loop_check_local_truthful(score, ts, report_of, radius, 1e-9),
    )


def case_revenue_equivalence(rng):
    # subgradients of a random max-affine G: implementable, and a target
    # whose piece differs from the base type's has an interval of width > 0
    dim = int(rng.integers(1, 4))
    g = random_max_affine(rng, dim)
    ts = random_typespace(rng, dim, max_points=25)
    fam = LinearFamily(np.vstack([subgradient(g, t) for t in ts.points]))
    t0 = int(rng.integers(0, len(ts)))
    return (
        check_revenue_equivalence(ts, fam, t0=t0),
        loop_check_revenue_equivalence(ts, fam, t0, 1e-9),
    )


def case_wmon_cells(rng):
    dim = int(rng.integers(1, 4))
    sites = rng.uniform(-2, 2, size=(int(rng.integers(2, 6)), dim))
    k = int(rng.integers(2, 25))
    sample = LabeledSample(
        points=rng.uniform(-3, 3, size=(k, dim)),
        labels=rng.integers(0, len(sites), size=k),
    )
    return check_wmon_cells(sites, sample), loop_check_wmon_cells(sites, sample, 1e-9)


def case_level_set(rng):
    # integer lattice points, so exact and near-collinear triples abound
    dim = int(rng.integers(1, 3))
    lattice = rng.integers(0, 4, size=(int(rng.integers(6, 30)), dim))
    pts = np.unique(lattice, axis=0).astype(float)
    pts += rng.uniform(-1e-7, 1e-7, size=pts.shape) * rng.integers(0, 2)
    sample = LabeledSample(points=pts, labels=rng.integers(0, 3, size=len(pts)))
    # eps = 1 puts lattice neighbours exactly at the endpoint cut-off
    eps = float(rng.choice([1e-6, 0.05, 0.3, 1.0]))
    return (
        check_level_set_convexity(sample, eps=eps),
        loop_check_level_set_convexity(sample, eps),
    )


def _beliefs(rng, reports):
    """Report rows in shuffled order with repeats, positive entries
    nudged within the simplex tolerance."""
    rows = reports[rng.integers(0, len(reports), size=len(reports) + 3)]
    return rows + np.where(rows > 0, rng.uniform(-1e-12, 1e-12, rows.shape), 0.0)


def case_proper_log(rng):
    # log score: -inf payoffs wherever a report puts zero mass
    table = make_scoring_rule(NegEntropy(), simplex_grid(3, 4))
    finite = np.isfinite(table.payoffs)
    payoffs = table.payoffs + np.where(finite, rng.normal(0, 0.3, table.payoffs.shape), 0)
    table = OutcomeScoreTable(table.reports, payoffs)
    beliefs = None if rng.integers(0, 2) else _beliefs(rng, table.reports)
    strict = bool(rng.integers(0, 2))
    return (
        check_proper(table, beliefs, strict=strict),
        loop_check_proper(table, beliefs, strict, 1e-9),
    )


def case_proper_ties(rng):
    # duplicated payoff rows tie exactly; strict mode must flag them
    table = make_scoring_rule(SquaredNorm(), simplex_grid(3, 3))
    payoffs = table.payoffs.copy()
    src = rng.integers(0, len(payoffs), size=4)
    dst = rng.integers(0, len(payoffs), size=4)
    payoffs[dst] = payoffs[src]
    table = OutcomeScoreTable(table.reports, payoffs)
    beliefs = None if rng.integers(0, 2) else _beliefs(rng, table.reports)
    return (
        check_proper(table, beliefs, strict=True),
        loop_check_proper(table, beliefs, True, 1e-9),
    )


def test_mixed_infinite_terms_score_minus_inf():
    # a belief within tolerance of its report may put -1e-10 on one
    # outcome and 1e-10 on another where a deviation pays -inf; that
    # deviation's expected score is -inf, as in expected_score, never nan
    table = OutcomeScoreTable(
        reports=[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]],
        payoffs=[[-1.0, -1.0, 0.0], [-np.inf, -np.inf, 0.5], [-1.0, -2.0, -1.0]],
    )
    beliefs = [[1e-10, -1e-10, 1.0], [0.5, 0.0, 0.5]]
    assert expected_score(table, 1, beliefs[0]) == -np.inf
    report = check_proper(table, beliefs)
    assert report.to_obj() == loop_check_proper(table, beliefs, False, 1e-9).to_obj()
    assert not report.passed


def test_non_finite_own_score_is_rejected():
    # the same mixed terms on the belief's own report make its truthful
    # score -inf; every deviation would then gain +inf
    table = OutcomeScoreTable(
        reports=[[0.0, 0.0, 1.0], [0.5, 0.0, 0.5]],
        payoffs=[[-np.inf, -np.inf, 0.0], [-1.0, -np.inf, -1.0]],
    )
    with pytest.raises(ValueError, match="truthful reports must score finite values"):
        check_proper(table, [[1e-10, -1e-10, 1.0], [0.5, 0.0, 0.5]])


class _Witnesses:
    """Wraps a witness list so it prints like a report."""

    def __init__(self, witnesses):
        self.passed = not witnesses
        self.witnesses = witnesses

    def to_obj(self):
        return [w.to_obj() for w in self.witnesses]


def case_duality(rng):
    if rng.integers(0, 2):
        g, dim = random_max_affine(rng, 1), 1
    else:
        g, dim = SquaredNorm(), 2
    grid = TypeSpace(np.unique(rng.uniform(-2, 2, size=(12, dim)), axis=0))
    duals = rng.uniform(-3, 3, size=(8, dim))
    tol = float(rng.choice([0.0, 1e-15, -1e-3]))
    # On one grid these identities hold up to rounding by construction, so
    # their witness masks are reached mostly at tolerances <= 0, which the
    # library rejects: lift that one validation for this call.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("elicit.duality.require_positive", lambda x: x)
        report = check_duality_identities(g, grid, duals, tol=tol)
    return _Witnesses(report.witnesses), _Witnesses(
        loop_duality_witnesses(g, grid, duals, tol)
    )


CASES = {
    "check_wmon": case_wmon,
    "check_subgradient_selection": case_subgradient_selection,
    "check_truthful": case_truthful,
    "check_local_truthful": case_local_truthful,
    "check_revenue_equivalence": case_revenue_equivalence,
    "check_wmon_cells": case_wmon_cells,
    "check_level_set_convexity": case_level_set,
    "check_proper/log": case_proper_log,
    "check_proper/ties": case_proper_ties,
    "check_duality_identities": case_duality,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_mask_verifier_prints_what_the_loops_print(name):
    rng = np.random.default_rng([2024, sorted(CASES).index(name)])
    failing = 0
    for _ in range(TRIALS):
        report, reference = CASES[name](rng)
        assert jsonio.dumps(report.to_obj()) == jsonio.dumps(reference.to_obj())
        failing += not report.passed
    # the comparison is only worth something on failing inputs
    assert failing >= TRIALS // 2
