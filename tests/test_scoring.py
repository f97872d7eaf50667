import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import (
    LinearFamily,
    MaxAffine,
    NegEntropy,
    OutcomeScoreTable,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    UnreachableActionError,
    check_expert_separation,
    check_proper,
    check_truthful,
    eval_convex,
    expected_score,
    make_decision_score,
    make_direct_score,
    make_scoring_rule,
    simplex_grid,
)
from helpers import loop_check_proper, loop_expected_score, random_max_affine, random_typespace

GRID2 = simplex_grid(2, 10)


def linear_table(reports):
    """The classic improper rule S(q, omega) = q(omega)."""
    reports = np.asarray(reports, dtype=float)
    return OutcomeScoreTable(reports=reports, payoffs=reports.copy())


class TestSimplexGrid:
    def test_counts(self):
        assert len(simplex_grid(2, 10)) == 11
        assert len(simplex_grid(3, 10)) == 66  # (10 + 2 choose 2)

    def test_rows_sum_to_one(self):
        g = simplex_grid(3, 7)
        assert np.allclose(g.sum(axis=1), 1.0)
        assert np.all(g >= 0)


class TestMakeScoringRule:
    def test_brier_row_by_hand(self):
        # evaluate G(p) + d_p[w] - <d_p, p> with G = sum p^2, d = 2p
        p = np.array([0.75, 0.25])
        g_val = float(p @ p)
        d = 2 * p
        expect = g_val + d - float(d @ p)
        assert expect == pytest.approx([0.875, -0.125], abs=1e-12)
        table = make_scoring_rule(SquaredNorm(), [p])
        assert table.payoffs[0] == pytest.approx([0.875, -0.125], abs=1e-12)

    def test_brier_uniform_row_is_flat(self):
        table = make_scoring_rule(SquaredNorm(), [[0.5, 0.5]])
        assert table.payoffs[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_log_score_vertex_row(self):
        table = make_scoring_rule(NegEntropy(), [[1.0, 0.0]])
        assert table.payoffs[0, 0] == 0.0
        assert table.payoffs[0, 1] == -math.inf

    def test_log_score_reads_a_coordinate_just_below_zero_as_zero(self):
        table = make_scoring_rule(NegEntropy(), [[1e-10, -1e-10, 1.0], [-0.0, 0.5, 0.5]])
        assert table.payoffs[0].tolist() == [math.log(1e-10), -np.inf, 0.0]
        assert table.payoffs[1].tolist() == [-np.inf, math.log(0.5), math.log(0.5)]

    def test_nan_report_is_off_the_simplex(self):
        with pytest.raises(ValueError, match="not on the probability simplex"):
            make_scoring_rule(SquaredNorm(), [[math.nan, math.nan]])

    def test_log_score_interior_rows_are_log_probabilities(self):
        reports = [[0.3, 0.7], [0.5, 0.5]]
        table = make_scoring_rule(NegEntropy(), reports)
        assert table.payoffs == pytest.approx(np.log(reports), abs=1e-12)

    def test_truthful_expectation_equals_g(self):
        for p in GRID2:
            if min(p) < 1e-12:
                continue
            table = make_scoring_rule(SquaredNorm(), [p])
            assert expected_score(table, 0, p) == pytest.approx(
                eval_convex(SquaredNorm(), p), abs=1e-12
            )


class TestExpectedScore:
    def test_uniform_brier(self):
        table = make_scoring_rule(SquaredNorm(), GRID2)
        idx = table.find_report([0.5, 0.5])
        assert expected_score(table, idx, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_log_vertex_zero_times_neg_inf(self):
        table = make_scoring_rule(NegEntropy(), [[1.0, 0.0]])
        assert expected_score(table, 0, [1.0, 0.0]) == 0.0

    def test_a_minus_inf_term_sinks_an_overflowed_sum(self):
        # the first term overflows to +inf; the -inf term still wins, as
        # in the one-outcome-at-a-time reference, instead of giving nan
        table = OutcomeScoreTable(
            reports=[[1, 0, 0], [0, 0, 1]],
            payoffs=[[1.7976931348623157e308, 0, -np.inf], [0, 0, 0]],
        )
        belief = np.array([1 + 5e-10, -1e-9, 5e-10])
        assert loop_expected_score(table, 0, belief) == -np.inf
        assert expected_score(table, 0, belief) == -np.inf
        assert table.payoff_matrix([belief])[0].tolist() == [-np.inf, 0.0]

    def test_rounding_below_zero_times_neg_inf_is_zero(self):
        # -1e-10 is within SIMPLEX_TOL of 0: against -inf it adds 0, as
        # 0 does, while against a finite payoff it keeps its product
        table = OutcomeScoreTable(
            reports=[[0, 0, 1], [0.5, 0, 0.5]],
            payoffs=[[-1, -1, 0], [-1, -np.inf, -1]],
        )
        belief = [1e-10, -1e-10, 1]
        assert expected_score(table, 1, belief) == 1e-10 * -1 + 0.0 + -1.0
        assert expected_score(table, 0, belief) == 1e-10 * -1 + -1e-10 * -1 + 0.0
        # +1e-10 is a real probability: against -inf it sinks the score
        assert expected_score(table, 1, [-1e-10, 1e-10, 1]) == -np.inf
        assert table.payoff_matrix([belief, [-1e-10, 1e-10, 1]])[:, 1].tolist() == [
            1e-10 * -1 + 0.0 + -1.0,
            -np.inf,
        ]

    def test_nan_belief_is_off_the_simplex(self):
        table = make_scoring_rule(SquaredNorm(), GRID2)
        with pytest.raises(ValueError, match=r"belief \[nan, nan\] is not on the"):
            expected_score(table, 0, [math.nan, math.nan])

    def test_brier_vertex_row_against_mixed_belief(self):
        table = make_scoring_rule(SquaredNorm(), [[1.0, 0.0]])
        assert table.payoffs[0] == pytest.approx([1.0, -1.0], abs=1e-12)
        got = expected_score(table, 0, [0.6, 0.4])
        assert got == pytest.approx(0.2, abs=1e-12)


class TestCheckProper:
    def test_brier_grid_strictly_proper(self):
        table = make_scoring_rule(SquaredNorm(), GRID2)
        assert check_proper(table, strict=True).passed

    def test_linear_rule_fails_with_documented_witness(self):
        table = linear_table(GRID2)
        report = check_proper(table)
        assert not report.passed
        truth = table.find_report([0.6, 0.4])
        vertex = table.find_report([1.0, 0.0])
        hits = [w for w in report.witnesses if w.indices == (truth, vertex)]
        assert hits, "belief (0.6, 0.4) must prefer reporting (1, 0)"
        assert hits[0].slack == pytest.approx(0.6 - 0.52, abs=1e-12)

    def test_single_report_vacuous(self):
        table = make_scoring_rule(SquaredNorm(), [[0.25, 0.75]])
        assert check_proper(table, strict=True).passed

    def test_rounding_below_zero_on_a_minus_inf_deviation(self):
        table = OutcomeScoreTable(
            reports=[[0, 0, 1], [0.5, 0, 0.5]],
            payoffs=[[-1, -1, 0], [-1, -np.inf, -1]],
        )
        report = check_proper(table, beliefs=[[1e-10, -1e-10, 1]])
        assert report.passed
        assert report.to_obj() == loop_check_proper(
            table, [[1e-10, -1e-10, 1]], False, 1e-9
        ).to_obj()

    def test_unknown_belief_rejected(self):
        table = make_scoring_rule(SquaredNorm(), [[0.5, 0.5]])
        with pytest.raises(ValueError):
            check_proper(table, beliefs=[[0.4, 0.6]])

    def test_log_table_proper_on_grid(self):
        table = make_scoring_rule(NegEntropy(), GRID2)
        assert check_proper(table).passed

    def test_subset_of_reports_stays_proper(self):
        table = make_scoring_rule(SquaredNorm(), GRID2)
        sub = OutcomeScoreTable(
            reports=table.reports[::2].copy(), payoffs=table.payoffs[::2].copy()
        )
        assert check_proper(sub, strict=True).passed

    def test_nonconvex_report_set_extends_to_hull(self):
        # a gap in the middle of the simplex: properness survives both the
        # restriction and the re-extension by hull grid points
        gap = np.array([p for p in GRID2 if not 0.25 < p[0] < 0.75])
        table = make_scoring_rule(SquaredNorm(), gap)
        assert check_proper(table, strict=True).passed
        extended = make_scoring_rule(SquaredNorm(), GRID2)
        assert check_proper(extended, strict=True).passed
        for p in gap:
            i, j = table.find_report(p), extended.find_report(p)
            assert table.payoffs[i] == pytest.approx(extended.payoffs[j], abs=1e-12)

    def test_strict_flags_duplicate_payoff_rows(self):
        # two distinct reports with identical affine rows tie everywhere
        table = OutcomeScoreTable(
            reports=[[0.4, 0.6], [0.6, 0.4]],
            payoffs=[[0.5, 0.5], [0.5, 0.5]],
        )
        assert check_proper(table).passed
        strict = check_proper(table, strict=True)
        assert not strict.passed
        assert all(w.kind == "tie" and w.slack == 0.0 for w in strict.witnesses)


class TestExpertSeparation:
    TABLE = make_scoring_rule(SquaredNorm(), GRID2)
    INFORMED = [p for p in GRID2 if p.max() >= 0.9]

    def test_thresholds_pass(self):
        report = check_expert_separation(
            self.TABLE, self.INFORMED, [0.5, 0.5], delta_accept=0.8, delta_reject=0.55
        )
        assert report.passed
        assert min(report.info["values_in"]) == pytest.approx(0.82, abs=1e-12)
        assert report.info["value_bar"] == pytest.approx(0.5, abs=1e-12)

    def test_accept_threshold_too_high_fails(self):
        report = check_expert_separation(
            self.TABLE, self.INFORMED, [0.5, 0.5], delta_accept=0.9, delta_reject=0.55
        )
        assert not report.passed
        slacks = {w.slack for w in report.witnesses}
        assert any(abs(s - (0.9 - 0.82)) < 1e-12 for s in slacks)

    @pytest.mark.parametrize("where", ["informed", "uninformed"])
    def test_nan_belief_is_off_the_simplex(self, where):
        nan = [math.nan, math.nan]
        p_in, p_bar = ([nan], [0.5, 0.5]) if where == "informed" else (self.INFORMED, nan)
        with pytest.raises(ValueError, match=r"belief \[nan, nan\] is not on the"):
            check_expert_separation(self.TABLE, p_in, p_bar, delta_accept=0, delta_reject=1)

    def test_vacuous_thresholds_pass(self):
        report = check_expert_separation(
            self.TABLE, self.INFORMED, [0.5, 0.5], delta_accept=-1e9, delta_reject=1e9
        )
        assert report.passed


class TestDecisionScore:
    def test_single_action_reduces_to_scoring_rule(self):
        reports = [np.array([[0.3, 0.7]]), np.array([[0.5, 0.5]])]
        spec = make_decision_score(
            SquaredNorm(), [[1.0], [1.0]], reports
        )
        table = make_scoring_rule(SquaredNorm(), [r[0] for r in reports])
        assert spec.scores[:, 0, :] == pytest.approx(table.payoffs, abs=1e-12)

    def test_uniform_rule_flat_report(self):
        q = np.full((2, 2), 0.5)
        spec = make_decision_score(SquaredNorm(), [[0.5, 0.5]], [q])
        # G(Q) = 1, <G_Q, Q> = 2, G_Q[i,o]/D_i = 1/0.5: 1 - 2 + 2 = 1
        assert spec.scores[0] == pytest.approx(np.ones((2, 2)), abs=1e-12)
        assert spec.expected_value(0, q) == pytest.approx(1.0, abs=1e-12)

    def test_expected_value_identity(self):
        rng = np.random.default_rng(2)
        q = rng.dirichlet(np.ones(3), size=2)  # 2 actions, 3 outcomes
        p = rng.dirichlet(np.ones(3), size=2)
        spec = make_decision_score(SquaredNorm(), [[0.4, 0.6]], [q])
        flat_q = q.reshape(-1)
        d = 2 * flat_q
        expect = float(flat_q @ flat_q) + float(d @ (p.reshape(-1) - flat_q))
        assert spec.expected_value(0, p) == pytest.approx(expect, abs=1e-12)

    def test_dead_action_requires_zero_subgradient(self):
        q = np.array([[0.3, 0.7], [0.5, 0.5]])
        with pytest.raises(UnreachableActionError):
            make_decision_score(SquaredNorm(), [[1.0, 0.0]], [q])

    def test_dead_action_flagged_with_placeholder(self):
        # max-affine over matrices, slope zero on the dead second action
        g = MaxAffine(slopes=[[1.0, 2.0, 0.0, 0.0]], intercepts=[0.0])
        q = np.array([[0.3, 0.7], [0.5, 0.5]])
        spec = make_decision_score(g, [[1.0, 0.0]], [q])
        assert spec.unconstrained[0] == [1]
        assert spec.scores[0, 1] == pytest.approx([0.0, 0.0], abs=0)


class TestDirectScore:
    def test_squared_norm_rows(self):
        ts = TypeSpace([[0.0, 0.0], [1.0, 0.0]])
        score = make_direct_score(SquaredNorm(), ts)
        assert score.linear[0] == pytest.approx([0.0, 0.0], abs=0)
        assert score.constant[0] == pytest.approx(0.0, abs=0)
        assert score.linear[1] == pytest.approx([2.0, 0.0], abs=0)
        assert score.constant[1] == pytest.approx(-1.0, abs=0)

    def test_abs_value_table_is_truthful_with_flat_ties(self):
        g = MaxAffine(slopes=[[1.0], [-1.0]], intercepts=[0.0, 0.0])
        ts = TypeSpace([[-1.0], [0.0], [1.0]])
        score = make_direct_score(g, ts)
        assert check_truthful(score, ts).passed
        # reports 0 (slope +1 at t = 0) and 1 tie at every t >= 0
        assert score.evaluate(1, [1.0]) == score.evaluate(2, [1.0])

    def test_constant_function_all_rows_identical(self):
        g = MaxAffine(slopes=[[0.0, 0.0]], intercepts=[3.5])
        ts = TypeSpace([[0.0, 1.0], [2.0, 0.5]])
        score = make_direct_score(g, ts)
        assert np.all(score.linear == 0.0)
        assert score.constant == pytest.approx([3.5, 3.5], abs=0)


class TestCheckTruthful:
    def test_constructed_score_passes(self):
        ts = TypeSpace([[0.1], [0.4], [0.9]])
        assert check_truthful(make_direct_score(SquaredNorm(), ts), ts).passed

    def test_bad_table_fails_exhaustively(self):
        score = ScoreTable(reports=[0, 1], linear=[[1.0], [0.0]], constant=[0.0, 0.0])
        ts = TypeSpace([[0.0], [1.0]])
        report = check_truthful(score, ts)
        assert not report.passed
        assert report.witnesses[0].indices == (1, 0)  # type 1 prefers report 0
        assert report.witnesses[0].slack == pytest.approx(1.0, abs=0)

    def test_single_type_vacuous(self):
        ts = TypeSpace([[2.0]])
        score = ScoreTable(reports=[0], linear=[[1.0]], constant=[0.0])
        report = check_truthful(score, ts)
        assert report.passed
        assert report.info["min_slack"] == 0.0

    def test_no_finite_deviation_has_no_min_slack(self):
        ts = TypeSpace([[1.0, 0.0], [0.0, 1.0]])
        score = ScoreTable(
            reports=[0, 1], linear=[[0.0, -1e308], [-1e308, 0.0]], constant=[-1e308, -1e308]
        )
        report = check_truthful(score, ts)
        assert report.passed
        assert report.info["min_slack"] is None
        # one finite deviation is enough for a number: type 0 now ties
        # with report 1, both scoring -1e308
        score.constant[1] = 0.0
        assert check_truthful(score, ts).info["min_slack"] == 0.0


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_direct_score_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        g = random_max_affine(rng, dim)
        ts = random_typespace(rng, dim, max_points=20)
        report = check_truthful(make_direct_score(g, ts), ts)
        assert report.passed

    def test_scoring_rule_round_trip_strict(self):
        for k in (4, 10):
            table = make_scoring_rule(SquaredNorm(), simplex_grid(2, k))
            assert check_proper(table, strict=True).passed

    def test_value_function_identity(self):
        table = make_scoring_rule(SquaredNorm(), GRID2)
        for p in GRID2:
            best = max(expected_score(table, r, p) for r in range(len(table)))
            assert best == pytest.approx(eval_convex(SquaredNorm(), p), abs=1e-9)
