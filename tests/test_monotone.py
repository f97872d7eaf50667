import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import (
    EvaluationError,
    LinearFamily,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    check_cmon,
    check_local_truthful,
    check_path_independence,
    check_truthful,
    check_wmon,
    make_direct_score,
    revenue_interval,
    rochet_payments,
    subgradient,
)
from elicit.monotone import cmon_weights, longest_paths
from helpers import (
    brute_force_cmon,
    columnwise_longest_paths,
    full_rounds_longest_paths,
    random_max_affine,
    random_typespace,
    recheck_cycle,
)

LINE = TypeSpace([[0.0], [1.0], [2.0]])
INCREASING = LinearFamily([[0.0], [1.0], [2.0]])
DECREASING = LinearFamily([[1.0], [0.0]])
TWO = TypeSpace([[0.0], [1.0]])


class TestWmon:
    def test_increasing_family_passes(self):
        assert check_wmon(LINE, INCREASING).passed

    def test_decreasing_family_fails_with_slack_one(self):
        report = check_wmon(TWO, DECREASING)
        assert not report.passed
        (w,) = report.witnesses
        assert w.indices == (0, 1)
        assert w.slack == pytest.approx(1.0, abs=1e-12)

    def test_constant_family_passes(self):
        ts = TypeSpace(np.random.default_rng(0).uniform(-1, 1, size=(8, 3)))
        fam = LinearFamily(np.tile([0.4, -0.2, 1.0], (8, 1)))
        assert check_wmon(ts, fam).passed


class TestCmon:
    def test_increasing_family_passes(self):
        assert check_cmon(LINE, INCREASING).passed

    def test_wmon_failure_shows_as_two_cycle(self):
        report = check_cmon(TWO, DECREASING)
        assert not report.passed
        (w,) = report.witnesses
        assert w.kind == "cycle"
        assert sorted(w.indices) == [0, 1]
        assert w.slack == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_subgradient_selections_always_pass(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        g = random_max_affine(rng, dim)
        ts = random_typespace(rng, dim, max_points=10)
        fam = LinearFamily(np.vstack([subgradient(g, t) for t in ts.points]))
        assert check_cmon(ts, fam).passed

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_exhaustive_cycle_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        ts = TypeSpace(rng.uniform(-2, 2, size=(m, dim)))
        fam = LinearFamily(rng.uniform(-2, 2, size=(m, dim)))
        oracle_pass, worst = brute_force_cmon(ts, fam)
        report = check_cmon(ts, fam)
        assert report.passed == oracle_pass, f"worst cycle weight {worst}"
        if not report.passed:
            (w,) = report.witnesses
            assert w.slack <= worst + 1e-9

    def test_cmon_implies_wmon(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            ts = TypeSpace(rng.uniform(-2, 2, size=(m, 2)))
            fam = LinearFamily(rng.uniform(-2, 2, size=(m, 2)))
            if check_cmon(ts, fam).passed:
                assert check_wmon(ts, fam).passed

    def test_witness_cycle_weight_is_consistent(self):
        ts = TypeSpace([[0.0], [1.0], [2.0]])
        fam = LinearFamily([[2.0], [1.0], [0.0]])
        report = check_cmon(ts, fam)
        assert not report.passed
        w = report.witnesses[0]
        weights = cmon_weights(ts, fam)
        cyc = list(w.indices)
        total = sum(weights[a, b] for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        assert total == pytest.approx(w.slack, abs=1e-12)


class TestLongestPaths:
    def test_virtual_source_no_cycle(self):
        weights = cmon_weights(LINE, INCREASING)
        res = longest_paths(weights, source=None)
        assert res.cycle is None

    def test_distances_from_source(self):
        weights = cmon_weights(LINE, INCREASING)
        res = longest_paths(weights, source=0)
        assert res.dist == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_empty_graph_gives_an_empty_result(self):
        res = longest_paths(np.zeros((0, 0)))
        assert res.dist.shape == (0,) and res.pred.shape == (0,)
        assert res.cycle is None


def _family(kind, rng):
    """A seeded family over 2-60 random types in R^1-R^3: random
    functionals, the gradient of ||t||^2 with or without N(0, 0.05^2)
    noise, or a subgradient selection of a random max-affine function
    (types in one piece share a gradient, so the graph has zero-weight
    2-cycles)."""
    dim = int(rng.integers(1, 4))
    ts = random_typespace(rng, dim, max_points=60)
    m = len(ts)
    if kind == "random":
        vecs = rng.uniform(-2, 2, size=(m, dim))
    elif kind == "near-truthful":
        vecs = 2.0 * ts.points + rng.normal(scale=0.05, size=(m, dim))
    elif kind == "gradient":
        vecs = 2.0 * ts.points
    else:
        g = random_max_affine(rng, dim)
        vecs = np.vstack([subgradient(g, t) for t in ts.points])
    return ts, LinearFamily(vecs)


class TestEarlyCycleDetection:
    """The predecessor walk that stops Bellman-Ford early, against the
    full-rounds reference in ``helpers``."""

    # coarse tolerances leave positive cycles at or below tol, which the
    # walk must pass over
    TOLS = (1e-9, 1e-3, 0.05, 0.5, 10.0)

    @pytest.mark.parametrize(
        "kind,seed",
        [("random", 601), ("near-truthful", 602), ("gradient", 603), ("max-affine", 604)],
    )
    def test_agrees_with_full_rounds_reference(self, kind, seed):
        rng = np.random.default_rng(seed)
        walked = early = failed = tied = 0
        for _ in range(60):
            ts, fam = _family(kind, rng)
            weights = cmon_weights(ts, fam)
            tied += len(np.unique(fam.vectors, axis=0)) < len(ts)
            tol = float(rng.choice(self.TOLS))
            for source in (None, int(rng.integers(len(ts)))):
                res = longest_paths(weights, source=source, tol=tol)
                ref_dist, ref_cycle, _ = full_rounds_longest_paths(weights, source, tol)
                assert (res.cycle is None) == (ref_cycle is None), (kind, source, tol)
                if res.cycle is None:
                    # the walk leaves the relaxation itself untouched
                    np.testing.assert_array_equal(res.dist, ref_dist)
                else:
                    recheck_cycle(weights, res.cycle, res.cycle_weight, tol)
                    failed += 1
                    early += res.rounds < len(ts) - 1
                walked += res.rounds >= 8
        if kind in ("gradient", "max-affine"):
            assert failed == 0
        else:
            assert early > 0
        if kind == "max-affine":
            # these converge before round 8, so no walk runs; they bring
            # the zero-weight 2-cycles of tied gradients
            assert tied > 0
        else:
            assert walked > 0

    def test_final_scan_certifies_when_the_walk_finds_nothing(self, monkeypatch):
        # nodes 0 and 1 close a cycle of weight 0.4, below tol = 1; nodes
        # 2-4 close one of weight 6; every other edge weighs -100
        m = 12
        weights = np.full((m, m), -100.0)
        weights[0, 1] = weights[1, 0] = 0.2
        weights[2, 3] = weights[3, 4] = weights[4, 2] = 2.0
        res = longest_paths(weights, tol=1.0)
        assert res.rounds == 8
        recheck_cycle(weights, res.cycle, res.cycle_weight, 1.0)
        monkeypatch.setattr("elicit.monotone._pred_cycles", lambda pred: iter(()))
        res = longest_paths(weights, tol=1.0)
        assert res.rounds == m - 1
        recheck_cycle(weights, res.cycle, res.cycle_weight, 1.0)
        assert sorted(res.cycle) == [2, 3, 4]

    @pytest.mark.parametrize("noise,tol", [(None, 1e-9), (None, 1.0), (0.2, 0.05)])
    def test_failing_family_stops_within_sixteen_rounds(self, noise, tol):
        # 400 types in R^3 with random functionals, or with the gradient
        # of ||t||^2 plus N(0, noise^2) noise; in the latter, predecessor
        # cycles of weight below tol form first and must be passed over
        rng = np.random.default_rng(400)
        pts = rng.uniform(-2, 2, size=(400, 3))
        if noise is None:
            vecs = rng.uniform(-2, 2, size=(400, 3))
        else:
            vecs = 2.0 * pts + rng.normal(scale=noise, size=(400, 3))
        ts, fam = TypeSpace(pts), LinearFamily(vecs)
        report = check_cmon(ts, fam, tol=tol)
        assert not report.passed
        assert report.info["rounds"] <= 16
        (w,) = report.witnesses
        recheck_cycle(cmon_weights(ts, fam), w.indices, w.slack, tol)


def _assert_same_as_columnwise(weights, source, tol):
    res = longest_paths(weights, source=source, tol=tol)
    ref = columnwise_longest_paths(weights, source=source, tol=tol)
    assert res.dist.tobytes() == ref.dist.tobytes()
    assert res.pred.tobytes() == ref.pred.tobytes()
    assert (res.cycle, res.cycle_weight, res.rounds) == (ref.cycle, ref.cycle_weight, ref.rounds)
    return res


class TestTransposedKernel:
    """``longest_paths`` reads the weights transposed, yet every result
    must equal, bit for bit, that of the column-wise kernel it replaced
    (``helpers.columnwise_longest_paths``)."""

    TOLS = TestEarlyCycleDetection.TOLS

    @pytest.mark.parametrize(
        "kind,seed",
        [("random", 701), ("near-truthful", 702), ("gradient", 703), ("max-affine", 704)],
    )
    def test_families_match_bitwise(self, kind, seed):
        rng = np.random.default_rng(seed)
        failed = 0
        for _ in range(25):
            ts, fam = _family(kind, rng)
            weights = cmon_weights(ts, fam)
            for tol in self.TOLS:
                for source in (None, int(rng.integers(len(ts)))):
                    failed += _assert_same_as_columnwise(weights, source, tol).cycle is not None
        assert (failed > 0) == (kind in ("random", "near-truthful"))

    def test_missing_edges_match_bitwise(self):
        # about 30 % of the edges are -inf, as in a fit_weights graph
        rng = np.random.default_rng(705)
        for _ in range(40):
            ts, fam = _family("random", rng)
            weights = cmon_weights(ts, fam)
            weights[rng.random(weights.shape) < 0.3] = -np.inf
            for source in (None, int(rng.integers(len(ts)))):
                _assert_same_as_columnwise(weights, source, float(rng.choice(self.TOLS)))

    def test_positive_diagonal_is_ignored(self):
        # a self-loop that counted would relax every round
        rng = np.random.default_rng(706)
        for _ in range(40):
            m = int(rng.integers(2, 40))
            weights = rng.normal(scale=float(rng.choice([0.1, 1.0, 3.0])), size=(m, m))
            np.fill_diagonal(weights, rng.uniform(1.0, 10.0, size=m))
            for source in (None, int(rng.integers(m))):
                _assert_same_as_columnwise(weights, source, float(rng.choice(self.TOLS)))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_tiny_graphs_match_bitwise(self, m):
        rng = np.random.default_rng(707 + m)
        for _ in range(10):
            weights = rng.normal(size=(m, m))
            for source in [None] + list(range(m)):
                _assert_same_as_columnwise(weights, source, 1e-9)

    @pytest.mark.parametrize(
        "weights,source,message",
        [
            (np.zeros((3, 3)), -1, "source must be a node index in [0, 3), got -1"),
            (np.zeros((3, 3)), 3, "source must be a node index in [0, 3), got 3"),
            (np.zeros((3, 3)), 1.0, "source must be a node index in [0, 3), got 1.0"),
            (np.zeros((0, 0)), 0, "source must be a node index in [0, 0), got 0"),
            ([[0.0, np.nan], [0.0, 0.0]], None, "edge (0, 1) weighs nan"),
            ([[0.0, 0.0], [np.inf, 0.0]], 0, "edge (1, 0) weighs inf"),
            (np.zeros((2, 3)), None, "weights must be a square matrix, got shape (2, 3)"),
            (np.zeros(3), None, "weights must be a square matrix, got shape (3,)"),
        ],
    )
    def test_malformed_input_is_named(self, weights, source, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                longest_paths(weights, source=source)

    def test_diagonal_may_hold_any_value(self):
        weights = np.array([[np.nan, 1.0, -np.inf], [-1.0, np.inf, 0.5], [-5.0, -1.0, -np.inf]])
        for diagonal in (weights, np.where(np.eye(3, dtype=bool), 0.0, weights)):
            res = longest_paths(diagonal, source=0)
            assert res.dist.tolist() == [0.0, 1.0, 1.5] and res.pred.tolist() == [-1, 0, 1]
            assert res.cycle is None


class TestOverflowingWeights:
    """Finite types and functionals whose weights d_i . (t_j - t_i) leave
    the float range (edge 0 -> 1 weighs +inf), or whose weights are finite
    but sum to more than the float range along a cycle."""

    TS = TypeSpace([[1e200], [-1e200], [0.0]])
    FAMILY = LinearFamily([[-1e200], [1e200], [0.0]])
    SUM_TS = TypeSpace([[0.0], [1.0]])
    SUM_FAMILY = LinearFamily([[1e308], [-1e308]])

    @pytest.mark.parametrize(
        "call",
        [
            cmon_weights,
            check_wmon,
            check_cmon,
            rochet_payments,
            lambda ts, fam: revenue_interval(ts, fam, anchors={0: 0.0}, target=1),
        ],
        ids=["cmon_weights", "check_wmon", "check_cmon", "rochet_payments", "revenue_interval"],
    )
    @pytest.mark.parametrize("overflow", ["edge", "cycle"])
    def test_rejected_without_a_warning(self, call, overflow):
        ts, fam = (self.TS, self.FAMILY) if overflow == "edge" else (self.SUM_TS, self.SUM_FAMILY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow the float range"):
                call(ts, fam)

    def test_overflowing_payoffs_raise_no_warning(self):
        score = ScoreTable(reports=[0, 1, 2], linear=self.FAMILY.vectors, constant=[0.0] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(score.payoff_matrix(self.TS)).any()
            with pytest.raises(ValueError, match="truthful reports must score finite values"):
                check_truthful(score, self.TS)
            with pytest.raises(ValueError, match="truthful reports must score finite values"):
                check_local_truthful(score, self.TS, [0, 1, 2], radius=1.0)


class TestPathIndependence:
    TRIANGLE = ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])

    def test_gradient_field_is_conservative(self):
        fam = lambda t: 2.0 * np.asarray(t)
        report = check_path_independence(fam, self.TRIANGLE, samples=101)
        assert report.passed
        assert abs(report.info["circulation"]) <= 1e-9

    def test_vortex_field_circulation_equals_twice_area(self):
        fam = lambda t: np.array([-t[1], t[0]])
        report = check_path_independence(fam, self.TRIANGLE, samples=101)
        assert not report.passed
        # rotation field: loop integral = 2 * triangle area = 1.0; the
        # trapezoid rule is exact because the integrand is linear
        assert report.info["circulation"] == pytest.approx(1.0, abs=1e-9)
        assert report.witnesses[0].slack == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_triangle_passes(self):
        fam = lambda t: np.array([-t[1], t[0]])
        collinear = ([0.0, 0.0], [0.5, 0.5], [1.0, 1.0])
        report = check_path_independence(fam, collinear, samples=51)
        assert report.passed
        assert report.info["circulation"] == pytest.approx(0.0, abs=1e-12)

    def test_callable_failure_raises_evaluation_error(self):
        def broken(t):
            raise RuntimeError("boom")

        with pytest.raises(EvaluationError):
            check_path_independence(broken, self.TRIANGLE, samples=5)


class TestLocalTruthful:
    def test_direct_score_passes_locally_and_globally(self):
        ts = TypeSpace(np.arange(0.0, 1.05, 0.1).reshape(-1, 1))
        score = make_direct_score(SquaredNorm(), ts)
        report = check_local_truthful(
            score, ts, report_of=range(len(ts)), radius=0.15
        )
        assert report.passed
        assert report.info["global_passed"]
        assert report.info["agrees"]

    def test_non_monotone_family_fails_locally(self):
        from elicit import ScoreTable

        score = ScoreTable(reports=[0, 1], linear=[[1.0], [0.0]], constant=[0.0, 0.0])
        report = check_local_truthful(score, TWO, report_of=[0, 1], radius=2.0)
        assert not report.passed
        assert report.witnesses[0].indices == (0, 1)

    def test_non_finite_own_report_rejected(self):
        from elicit import ScoreTable

        score = ScoreTable(
            reports=[0, 1], linear=[[1.0], [0.0]], constant=[0.0, -np.inf]
        )
        with pytest.raises(ValueError, match="truthful reports must score finite"):
            check_local_truthful(score, TWO, report_of=[0, 1], radius=2.0)
        # -inf is fine on a report no type sends
        report = check_local_truthful(score, TWO, report_of=[0, 0], radius=2.0)
        assert report.passed

    def test_radius_beyond_diameter_matches_global(self):
        ts = TypeSpace(np.linspace(-1, 1, 9).reshape(-1, 1))
        score = make_direct_score(SquaredNorm(), ts)
        report = check_local_truthful(score, ts, report_of=range(9), radius=10.0)
        assert report.passed == report.info["global_passed"]
        assert report.info["checked_pairs"] == 9 * 8 // 2
