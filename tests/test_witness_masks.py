"""Differential tests: every verifier that builds its witnesses from a
boolean mask must print exactly what the explicit pair and triple loops
of ``helpers`` print, witness order, slacks and ``info`` included."""

import json

import numpy as np
import pytest

from elicit import (
    CheckReport,
    LabeledSample,
    LinearFamily,
    NegEntropy,
    OutcomeScoreTable,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    WitnessColumns,
    check_cmon,
    check_duality_identities,
    check_expert_separation,
    check_level_set_convexity,
    check_local_truthful,
    check_proper,
    check_revenue_equivalence,
    check_subgradient_selection,
    check_truthful,
    check_wmon,
    check_wmon_cells,
    cli,
    conjugate,
    eval_convex,
    fit_weights,
    jsonio,
    make_scoring_rule,
    simplex_grid,
    subgradient,
)
from elicit.monotone import LongestPathResult
from helpers import (
    loop_check_expert_separation,
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
    report_text,
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


#: path values whose interval ends test %.6g at its edges: a signed zero,
#: and exponents that %.6g writes in e-notation
EDGE_PATHS = [-0.0, 0.0, 1e-7, -1e-7, 1e16, -1e16, 2.5]


def case_revenue_equivalence(rng):
    # subgradients of a random max-affine G: implementable, and a target
    # whose piece differs from the base type's has an interval of width > 0
    dim = int(rng.integers(1, 4))
    g = random_max_affine(rng, dim)
    ts = random_typespace(rng, dim, max_points=25)
    fam = LinearFamily(np.vstack([subgradient(g, t) for t in ts.points]))
    t0 = int(rng.integers(0, len(ts)))
    if rng.integers(0, 2):
        return (
            check_revenue_equivalence(ts, fam, t0=t0),
            loop_check_revenue_equivalence(ts, fam, t0, 1e-9),
        )
    # planted paths from t0, on the family's graph and on the swapped
    # family's
    paths = [rng.choice(EDGE_PATHS, size=len(ts)) for _ in range(2)]
    for path in paths:
        path[t0] = 0.0
    planted = iter(paths)

    def planted_paths(*args):
        return LongestPathResult(next(planted), None, None)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("elicit.payments._paths_from", planted_paths)
        report = check_revenue_equivalence(ts, fam, t0=t0)
    return report, loop_check_revenue_equivalence(ts, fam, t0, 1e-9, paths)


def case_expert_separation(rng):
    # a noisy log score at a scale where %.6g writes e-notation or not;
    # thresholds at the beliefs' own values, so about half of them fail
    table = make_scoring_rule(NegEntropy(), simplex_grid(3, 4))
    scale = float(rng.choice([1.0, 1e-7, 1e16]))
    payoffs = scale * (table.payoffs + rng.normal(0, 0.3, table.payoffs.shape))
    table = OutcomeScoreTable(table.reports, payoffs)
    p_in = rng.dirichlet(np.ones(3), size=int(rng.integers(1, 8)))
    p_bar = rng.dirichlet(np.ones(3))
    values = table.payoff_matrix(np.vstack([p_in, p_bar])).max(axis=1)
    delta_accept = float(rng.choice(values[:-1]))
    delta_reject = float(values[-1] + scale * rng.uniform(-0.1, 0.1))
    return (
        check_expert_separation(table, p_in, p_bar, delta_accept, delta_reject),
        loop_check_expert_separation(table, p_in, p_bar, delta_accept, delta_reject, 1e-9),
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
    dim = int(rng.integers(1, 4))
    side = {1: 8, 2: 4, 3: 3}[dim]
    lattice = rng.integers(0, side, size=(int(rng.integers(6, 30)), dim)).astype(float)
    kind = int(rng.choice(4, p=[0.4, 0.25, 0.1, 0.25]))
    # kind 3 keeps duplicated points: segments of length zero are skipped
    pts = lattice if kind == 3 else np.unique(lattice, axis=0)
    pts = pts + rng.uniform(-1e-7, 1e-7, size=pts.shape) * rng.integers(0, 2)
    if kind == 1:
        # one label: every pair is a segment, so there are many blocks;
        # one or two points of another label give the test something to find
        labels = np.zeros(len(pts), dtype=int)
        labels[rng.choice(len(pts), size=int(rng.integers(1, 3)), replace=False)] = 1
    elif kind == 2:
        # all labels distinct: no segment, so the check passes
        labels = rng.permutation(len(pts))
    else:
        labels = rng.integers(0, 3, size=len(pts))
    sample = LabeledSample(points=pts, labels=labels)
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
    # deviation's expected score is -inf, as in payoff_matrix, never nan
    table = OutcomeScoreTable(
        reports=[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]],
        payoffs=[[-1.0, -1.0, 0.0], [-np.inf, -np.inf, 0.5], [-1.0, -2.0, -1.0]],
    )
    beliefs = [[1e-10, -1e-10, 1.0], [0.5, 0.0, 0.5]]
    assert table.payoff_matrix(beliefs[:1])[0, 1] == -np.inf
    report = check_proper(table, beliefs)
    assert jsonio.dumps(report.to_obj()) == report_text(
        loop_check_proper(table, beliefs, False, 1e-9)
    )
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


def case_duality(rng):
    if rng.integers(0, 2):
        g, dim = random_max_affine(rng, 1), 1
    else:
        g, dim = SquaredNorm(), 2
    grid = TypeSpace(np.unique(rng.uniform(-2, 2, size=(12, dim)), axis=0))
    duals = rng.uniform(-3, 3, size=(8, dim))
    tol = float(rng.choice([0.0, 1e-15, -1e-3]))
    shift = float(rng.uniform(0.0, 1.0))
    # On one grid the Fenchel-Young gap is at least 0 up to rounding by
    # construction, so its witness mask is reached only at tolerances
    # <= 0, which the library rejects, or with a conjugate that is too
    # low: lift that one validation and lower each conjugate by shift.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("elicit.duality.require_positive", lambda x: x)
        patch.setattr("elicit.duality.conjugate", lambda *args: conjugate(*args) - shift)
        report = check_duality_identities(g, grid, duals, tol=tol)
    # the loops give the witnesses only: compare reports without info
    return CheckReport(report.witnesses), CheckReport(
        loop_duality_witnesses(g, grid, duals, tol, shift)
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
    "check_expert_separation": case_expert_separation,
}


def finite_slacks(result) -> bool:
    """Whether every witness slack of a report or fit is finite: a slack
    is the amount by which an inequality fails, and the writer refuses
    any other."""
    return all(np.isfinite(slack).all() for _, _, slack, _ in result.witnesses.blocks)


@pytest.mark.parametrize("name", sorted(CASES))
def test_mask_verifier_prints_what_the_loops_print(name):
    rng = np.random.default_rng([2024, sorted(CASES).index(name)])
    failing = 0
    for _ in range(TRIALS):
        report, reference = CASES[name](rng)
        assert finite_slacks(report)
        assert jsonio.dumps(report.to_obj()) == report_text(reference)
        witnesses = list(reference.witnesses)
        assert list(report.witnesses) == witnesses
        n = len(witnesses)
        assert [report.witnesses[i] for i in range(-n, n)] == witnesses * 2
        assert report.witnesses[1::2] == witnesses[1::2]
        assert report.witnesses[::-3] == witnesses[::-3]
        failing += not report.passed
    # the comparison is only worth something on failing inputs
    assert failing >= TRIALS // 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_witness_blocks_hold_no_text_per_witness(name):
    # a block holds its kind and detail as templates over numeric columns,
    # filled in only when a witness is read or written; a list of one str
    # per witness would bring back a str.format call per witness per check
    rng = np.random.default_rng([2025, sorted(CASES).index(name)])
    report, _ = CASES[name](rng)
    while report.passed:
        report, _ = CASES[name](rng)

    def parts(obj):
        if isinstance(obj, tuple):
            for item in obj:
                yield from parts(item)
        else:
            yield obj

    for block in report.witnesses.blocks:
        for part in parts(block):
            assert isinstance(part, str) or (
                isinstance(part, np.ndarray) and part.dtype.kind in "biuf"
            ), type(part)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_report_holds_witness_columns(name):
    # one certificate type: passing or failing, a report's witnesses are
    # a WitnessColumns, never a list of Witness
    rng = np.random.default_rng([2026, sorted(CASES).index(name)])
    for _ in range(5):
        report, _ = CASES[name](rng)
        assert type(report.witnesses) is WitnessColumns


def test_a_cycle_and_a_site_conflict_are_witness_columns():
    ts = TypeSpace([[0.0], [1.0]])
    passing = check_cmon(ts, LinearFamily([[0.0], [1.0]]))
    failing = check_cmon(ts, LinearFamily([[1.0], [0.0]]))
    sites = np.array([[0.0, 3.0], [3.0, 1.0], [1.0, -3.0]])
    feasible = fit_weights(sites, LabeledSample(points=sites, labels=[0, 1, 2]))
    sample = LabeledSample(points=[[2.0, 4.0], [-3.0, -2.0], [1.0, -2.0]], labels=[1, 0, 2])
    infeasible = fit_weights(sites, sample)
    for result in (passing, failing, feasible, infeasible):
        assert type(result.witnesses) is WitnessColumns and finite_slacks(result)
    assert passing.passed and not failing.passed
    assert feasible.feasible and not feasible.witnesses
    assert not infeasible.feasible and len(infeasible.witnesses) == 3
    (cycle,) = failing.witnesses
    assert (cycle.kind, sorted(cycle.indices), cycle.slack) == ("cycle", [0, 1], 1.0)


def test_subgradient_selection_is_truthfulness_of_the_tangent_score():
    # d is a selection of subgradients of G iff the score d_i . t + G(t_i)
    # - d_i . t_i is truthful: pair (i, j) fails iff type j gains from
    # report i, by the same slack
    rng = np.random.default_rng(12)
    failing = 0
    for trial in range(TRIALS):
        dim = int(rng.integers(1, 4))
        g = SquaredNorm() if trial % 4 == 0 else random_max_affine(rng, dim)
        ts = random_typespace(rng, dim, max_points=25)
        if trial % 3 == 0:  # a true selection passes both
            fam = LinearFamily(np.vstack([subgradient(g, t) for t in ts.points]))
        else:
            fam = _family(rng, ts)
        constant = eval_convex(g, ts.points) - np.vecdot(fam.vectors, ts.points)
        score = ScoreTable(list(range(len(ts))), fam.vectors, constant)
        selection = check_subgradient_selection(g, fam, ts)
        truthful = check_truthful(score, ts)
        assert [(w.indices, w.slack) for w in selection.witnesses] == [
            (w.indices[::-1], w.slack) for w in truthful.witnesses
        ]
        failing += not selection.passed
    assert TRIALS // 2 <= failing < TRIALS


def test_wmon_cells_is_check_wmon_on_the_sites_of_the_labels():
    # on distinct points, the cell check is check_wmon with p_label as
    # each point's functional, restricted to pairs of different labels
    rng = np.random.default_rng(13)
    failing = 0
    for _ in range(TRIALS):
        dim = int(rng.integers(1, 4))
        sites = rng.uniform(-2, 2, size=(int(rng.integers(2, 6)), dim))
        points = rng.uniform(-3, 3, size=(int(rng.integers(2, 25)), dim))
        labels = rng.integers(0, len(sites), size=len(points))
        cells = check_wmon_cells(sites, LabeledSample(points=points, labels=labels))
        wmon = check_wmon(TypeSpace(points), LinearFamily(sites[labels]))
        mixed = [w for w in wmon.witnesses if labels[w.indices[0]] != labels[w.indices[1]]]
        assert [(w.indices, w.slack) for w in cells.witnesses] == [
            (w.indices, w.slack) for w in mixed
        ]
        failing += not cells.passed
    assert failing >= TRIALS // 2


def test_cli_writes_a_failing_report_through_one_to_obj_call(tmp_path, capsys, monkeypatch):
    # the benchmark's tracer counts the witnesses of each CLI call there
    calls = []
    to_obj = CheckReport.to_obj

    def counted(report):
        calls.append(len(report.witnesses))
        return to_obj(report)

    monkeypatch.setattr(CheckReport, "to_obj", counted)
    rng = np.random.default_rng(7)
    ts = random_typespace(rng, 2, max_points=25)
    score = _score(rng, len(ts), ts.dim)
    path = tmp_path / "score.json"
    path.write_text(json.dumps({
        "score": {"reports": score.reports, "linear": score.linear.tolist(),
                  "constant": score.constant.tolist()},
        "typeSpace": {"points": ts.points.tolist()},
    }))
    assert cli.main(["check-truthful", str(path)]) == 2
    reference = loop_check_truthful(score, ts, 1e-9)
    assert calls == [len(reference.witnesses)] and calls[0] > 0
    assert capsys.readouterr().out == report_text(reference) + "\n"
