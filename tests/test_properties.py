import re
import tracemalloc

import numpy as np
import pytest

from elicit import (
    LabeledSample,
    MaxAffine,
    NegEntropy,
    NonPositiveScaleError,
    PowerDiagramSpec,
    SquaredNorm,
    TypeSpace,
    bregman_to_power,
    check_level_set_convexity,
    check_wmon_cells,
    fit_weights,
    homothet_transform,
    power_cells,
    score_from_diagram,
    simplex_grid,
)
from helpers import bregman_matrix, kl_divergence

#: How an index field names an entry that is no index.
INDEX = "is not an integer in the int64 range"


def random_diagram(rng, n_sites, dim, weight_scale=1.0):
    sites = rng.uniform(-2, 2, size=(n_sites, dim))
    while len(np.unique(sites, axis=0)) < n_sites:
        sites = rng.uniform(-2, 2, size=(n_sites, dim))
    weights = rng.uniform(-weight_scale, weight_scale, size=n_sites)
    return PowerDiagramSpec(sites=sites, weights=weights)


class TestPowerCells:
    DIAG = PowerDiagramSpec(sites=[[0.0, 0.0], [1.0, 1.0]], weights=[0.0, 0.0])

    def test_plain_voronoi_nearest_site(self):
        labeling = power_cells(self.DIAG, [[0.4, 0.4]])
        assert labeling.labels[0] == 0
        assert not labeling.ties[0]

    def test_equidistant_point_ties_to_lowest_index(self):
        labeling = power_cells(self.DIAG, [[0.5, 0.5]])
        assert labeling.labels[0] == 0
        assert labeling.ties[0]

    def test_weights_shift_the_bisector(self):
        # sites 0, 1 with weights 0, 2: t^2 = (t-1)^2 - 2 at t = -0.5
        diag = PowerDiagramSpec(sites=[[0.0], [1.0]], weights=[0.0, 2.0])
        labeling = power_cells(diag, [[0.0]])
        assert labeling.labels[0] == 1
        left = power_cells(diag, [[-0.6]])
        assert left.labels[0] == 0
        boundary = power_cells(diag, [[-0.5]])
        assert boundary.ties[0]


class TestScoreFromDiagram:
    def test_one_dimensional_rows(self):
        diag = PowerDiagramSpec(sites=[[0.0], [1.0]], weights=[0.0, 0.0])
        score = score_from_diagram(diag)
        values = score.payoff_matrix(TypeSpace([[0.4]]))[:, 0]
        assert values[0] == pytest.approx(0.0, abs=0)
        assert values[1] == pytest.approx(-0.2, abs=1e-12)

    def test_argmax_matches_power_labels_randomly(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            diag = random_diagram(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
            pts = rng.uniform(-3, 3, size=(50, diag.dim))
            labeling = power_cells(diag, pts)
            score = score_from_diagram(diag)
            values = score.payoff_matrix(TypeSpace(pts))
            argmax = values.argmax(axis=0)
            keep = ~labeling.ties
            assert np.array_equal(argmax[keep], labeling.labels[keep])

    def test_single_site_constant(self):
        diag = PowerDiagramSpec(sites=[[0.5, 0.5]], weights=[2.0])
        labeling = power_cells(diag, np.random.default_rng(0).uniform(size=(10, 2)))
        assert np.all(labeling.labels == 0)


class TestFitWeights:
    SITES = np.array([[0.0], [1.0]])

    def test_voronoi_consistent_sample_feasible(self):
        sample = LabeledSample(points=[[0.0], [1.0]], labels=[0, 1])
        result = fit_weights(self.SITES, sample)
        assert result.feasible
        # each labeled site must be in the argmin set of its point
        diffs = sample.points[:, None, :] - self.SITES[None, :, :]
        costs = (diffs**2).sum(-1) - result.weights[None, :]
        for k, lab in enumerate(sample.labels):
            assert costs[k, lab] <= costs[k].min() + 1e-9

    def test_contradictory_labels_infeasible(self):
        # w1 >= 1 + w0 (from t=0 labeled 1) and w0 >= 3 + w1 (from t=2
        # labeled 0) cannot hold together
        sample = LabeledSample(points=[[0.0], [2.0]], labels=[1, 0])
        result = fit_weights(self.SITES, sample)
        assert not result.feasible
        assert result.witnesses
        involved = {w.indices[0] for w in result.witnesses}
        assert involved == {0, 1}

    def test_empty_sample_zero_weights(self):
        sample = LabeledSample(points=np.zeros((0, 1)), labels=[])
        result = fit_weights(self.SITES, sample)
        assert result.feasible
        assert result.weights == pytest.approx([0.0, 0.0], abs=0)

    def test_weights_normalized_to_min_zero(self):
        sample = LabeledSample(points=[[-0.6], [0.2]], labels=[1, 0])
        result = fit_weights(self.SITES, sample)
        if result.feasible:
            assert result.weights.min() == pytest.approx(0.0, abs=1e-12)


class TestWmonCells:
    SITES = np.array([[0.0], [1.0]])

    def test_consistent_sample_passes(self):
        sample = LabeledSample(points=[[0.0], [1.0]], labels=[0, 1])
        assert check_wmon_cells(self.SITES, sample).passed

    def test_swapped_sample_fails_with_slack_two(self):
        sample = LabeledSample(points=[[0.0], [2.0]], labels=[1, 0])
        report = check_wmon_cells(self.SITES, sample)
        assert not report.passed
        assert report.witnesses[0].indices == (0, 1)
        assert report.witnesses[0].slack == pytest.approx(2.0, abs=1e-12)

    def test_single_label_vacuous(self):
        sample = LabeledSample(points=[[0.0], [0.5], [2.0]], labels=[1, 1, 1])
        assert check_wmon_cells(self.SITES, sample).passed


    def test_pairwise_pass_does_not_imply_fittable_weights(self):
        # the three constraints w_j - w_i <= ||p_j - t||^2 - ||p_i - t||^2
        # along the site cycle 1 -> 0 -> 2 -> 1 sum to -10 < 0, so no
        # weights exist, yet every pair of labels is monotone
        sites = np.array([[0.0, 3.0], [3.0, 1.0], [1.0, -3.0]])
        sample = LabeledSample(
            points=[[2.0, 4.0], [-3.0, -2.0], [1.0, -2.0]], labels=[1, 0, 2]
        )
        assert check_wmon_cells(sites, sample).passed
        assert not fit_weights(sites, sample).feasible


class TestSaksYuEquivalence:
    def test_fit_matches_wmon_verdict_on_generated_samples(self):
        rng = np.random.default_rng(7)
        agree = 0
        for trial in range(40):
            dim = int(rng.integers(1, 4))
            diag = random_diagram(rng, int(rng.integers(2, 7)), dim)
            pts = rng.uniform(-3, 3, size=(12, dim))
            labeling = power_cells(diag, pts)
            labels = labeling.labels.copy()
            if trial % 2:  # break half the samples by a violating swap
                labels = _break_wmon(rng, diag.sites, pts, labels)
                if labels is None:
                    continue
            sample = LabeledSample(points=pts, labels=labels)
            fit = fit_weights(diag.sites, sample)
            wmon = check_wmon_cells(diag.sites, sample)
            assert fit.feasible == wmon.passed
            agree += 1
        assert agree >= 30


def _break_wmon(rng, sites, pts, labels):
    """Swap two differently-labeled points so the pair condition fails."""
    idx = np.arange(len(pts))
    rng.shuffle(idx)
    for a in idx:
        for b in idx:
            i, j = labels[a], labels[b]
            if i == j:
                continue
            swapped = labels.copy()
            swapped[a], swapped[b] = j, i
            slack = float((sites[j] - sites[i]) @ (pts[b] - pts[a]))
            if slack > 1e-6:
                return swapped
    return None


class TestHomothet:
    def test_weight_update_matches_boundary_equation(self):
        diag = PowerDiagramSpec(sites=[[0.0], [1.0]], weights=[0.0, 0.0])
        out = homothet_transform(diag, alpha=2.0, p0=[0.0])
        assert out.sites == pytest.approx(np.array([[0.0], [2.0]]), abs=0)
        # the original bisector t = 0.5 must solve (t-2)^2 - w1 = t^2 - w0
        assert out.weights[1] - out.weights[0] == pytest.approx(2.0, abs=1e-12)

    def test_identity_transform(self):
        diag = PowerDiagramSpec(sites=[[0.3, -1.0]], weights=[0.7])
        out = homothet_transform(diag, alpha=1.0, p0=[0.0, 0.0])
        assert out.sites == pytest.approx(diag.sites, abs=0)
        assert out.weights == pytest.approx(diag.weights, abs=0)

    def test_labels_invariant_under_random_homothets(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            diag = random_diagram(rng, 5, 2)
            pts = rng.uniform(-3, 3, size=(100, 2))
            base = power_cells(diag, pts)
            for _ in range(20):
                alpha = float(rng.uniform(0.2, 3.0))
                p0 = rng.uniform(-1, 1, size=2)
                moved = homothet_transform(diag, alpha, p0)
                new = power_cells(moved, pts)
                keep = ~(base.ties | new.ties)
                assert np.array_equal(new.labels[keep], base.labels[keep])

    def test_nonpositive_scale_rejected(self):
        diag = PowerDiagramSpec(sites=[[0.0]], weights=[0.0])
        with pytest.raises(NonPositiveScaleError):
            homothet_transform(diag, alpha=0.0, p0=[0.0])

    @pytest.mark.parametrize("alpha", [np.inf, np.nan])
    def test_non_finite_scale_rejected(self, alpha):
        diag = PowerDiagramSpec(sites=[[0.0], [1.0]], weights=[0.0, 0.5])
        with pytest.raises(NonPositiveScaleError, match=f"finite, got {alpha}"):
            homothet_transform(diag, alpha=alpha, p0=[0.0])

    @pytest.mark.parametrize("p0", [[np.inf], [np.nan]])
    def test_non_finite_offset_rejected(self, p0):
        diag = PowerDiagramSpec(sites=[[0.0], [1.0]], weights=[0.0, 0.5])
        with pytest.raises(ValueError, match="offset p0 must be finite"):
            homothet_transform(diag, alpha=2.0, p0=p0)


class TestPowerDiagramSpec:
    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError, match="duplicate site at index 2"):
            PowerDiagramSpec(sites=[[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], weights=[0.0, 0.0, 0.0])

    def test_negative_zero_is_zero(self):
        with pytest.raises(ValueError, match="duplicate site at index 1"):
            PowerDiagramSpec(sites=[[0.0], [-0.0]], weights=[0.0, 1.0])


class TestLabeledSample:
    def test_non_integer_label_is_rejected(self):
        with pytest.raises(ValueError, match=f"labels entry 1.7 {INDEX}"):
            LabeledSample(points=[[0.0], [0.5], [1.0]], labels=[0, 1.7, 0])
        with pytest.raises(ValueError, match=f"labels entry nan {INDEX}"):
            LabeledSample(points=[[0.0], [1.0]], labels=[0.0, np.nan])

    @pytest.mark.parametrize("label", [1e308, -1e308, 2.0**63])
    def test_label_beyond_the_int64_range_is_rejected(self, label):
        # the cast to int used to warn "invalid value encountered in cast"
        with pytest.raises(ValueError, match=re.escape(f"labels entry {label!r} {INDEX}")):
            LabeledSample(points=[[0.0]], labels=[label])

    def test_integral_float_labels_are_kept(self):
        sample = LabeledSample(points=[[0.0], [1.0]], labels=[0.0, 1.0])
        assert sample.labels.dtype.kind == "i"
        assert sample.labels.tolist() == [0, 1]


class TestLevelSetConvexity:
    def test_one_dimensional_sandwich(self):
        sample = LabeledSample(points=[[0.0], [1.0], [2.0]], labels=[0, 1, 0])
        report = check_level_set_convexity(sample)
        assert not report.passed
        assert report.witnesses[0].indices == (0, 2, 1)

    def test_negative_eps_rejected(self):
        # a negative eps would make the sandwich test unable to fail
        sample = LabeledSample(points=[[0.0], [0.5], [1.0]], labels=[0, 1, 0])
        assert not check_level_set_convexity(sample).passed
        with pytest.raises(ValueError, match="eps"):
            check_level_set_convexity(sample, eps=-1.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_non_finite_eps_rejected(self, eps):
        # at eps = inf no gap exceeds eps, so every sample would pass
        sample = LabeledSample(points=[[0.0], [1.0], [2.0], [3.5]], labels=[0, 1, 0, 1])
        assert not check_level_set_convexity(sample).passed
        with pytest.raises(ValueError, match=f"eps must be nonnegative and finite, got {eps}"):
            check_level_set_convexity(sample, eps=eps)

    def test_zero_eps_is_allowed(self):
        sample = LabeledSample(points=[[0.0], [1.0], [2.0]], labels=[0, 1, 0])
        report = check_level_set_convexity(sample, eps=0.0)
        assert not report.passed and report.info == {"eps": 0.0}

    def test_power_cell_labelings_pass(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            diag = random_diagram(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
            pts = rng.uniform(-3, 3, size=(25, diag.dim))
            labeling = power_cells(diag, pts)
            sample = LabeledSample(points=pts, labels=labeling.labels)
            assert check_level_set_convexity(sample).passed

    def test_single_label_passes(self):
        sample = LabeledSample(points=[[0.0], [5.0]], labels=[0, 0])
        assert check_level_set_convexity(sample).passed

    def test_near_duplicate_points_not_flagged(self):
        # differently-labeled points close to a segment endpoint are fine
        sample = LabeledSample(
            points=[[0.0, 0.0], [1.0, 0.0], [1e-9, 1e-9]], labels=[0, 0, 1]
        )
        assert check_level_set_convexity(sample).passed

    def test_overflowing_squared_distances_are_rejected(self):
        sample = LabeledSample(points=[[1e308], [0.0], [1.0]], labels=[0, 0, 1])
        with pytest.raises(
            ValueError,
            match="squared distances between sample points overflow the float range",
        ):
            check_level_set_convexity(sample)

    def test_a_huge_projection_on_a_tiny_segment_is_no_overflow(self):
        # t_2 projects to tau ~ 1e310 on the segment from t_0 to t_1: far
        # outside (0, 1), so it is no witness, and no warning is raised
        sample = LabeledSample(points=[[0.0], [1e-160], [1e150]], labels=[0, 0, 1])
        assert check_level_set_convexity(sample).passed

    def test_peak_memory_is_a_few_k_by_k_by_n_arrays(self):
        # one label: k (k - 1) / 2 segments, tested in blocks of k.  Blocks
        # peak at about 6.1 (k, k, n) float64 arrays and a per-point loop
        # at 5.6; batching every segment at once takes at least k / 2 = 60
        # of them, which the bound of 8 rules out.
        k, n = 120, 3
        pts = np.random.default_rng(5).uniform(-1, 1, size=(k, n))
        sample = LabeledSample(points=pts, labels=np.zeros(k, dtype=int))
        tracemalloc.start()
        try:
            assert check_level_set_convexity(sample).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (k * k * n * 8)


class TestBregmanToPower:
    def test_squared_norm_reduces_to_voronoi(self):
        sites = np.array([[0.0, 0.0], [1.0, 1.0]])
        grid = TypeSpace(sites)
        diag = bregman_to_power(SquaredNorm(), sites, grid)
        assert diag.sites == pytest.approx(sites, abs=0)
        assert diag.weights == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_neg_entropy_labels_match_kl_argmin(self):
        grid_pts = simplex_grid(3, 20)
        grid = TypeSpace(grid_pts)
        sites = np.array(
            [[0.6, 0.2, 0.2], [0.1, 0.8, 0.1], [0.25, 0.3, 0.45]]
        )
        diag = bregman_to_power(NegEntropy(), sites, grid)
        labeling = power_cells(diag, grid_pts)
        for k, t in enumerate(grid_pts):
            if labeling.ties[k]:
                continue
            kl = [kl_divergence(t, s) for s in sites]
            assert int(np.argmin(kl)) == labeling.labels[k]

    def test_divergence_argmin_is_the_oracle_for_any_g(self):
        # same check straight from the divergence definition
        rng = np.random.default_rng(5)
        sites = rng.dirichlet(np.ones(2), size=3)
        grid = TypeSpace(np.vstack([simplex_grid(2, 15), sites]))
        diag = bregman_to_power(NegEntropy(), sites, grid)
        pts = rng.dirichlet(np.ones(2) * 2, size=30)
        labeling = power_cells(diag, pts)
        nearest = bregman_matrix(NegEntropy(), pts, sites).argmin(axis=1)
        free = ~labeling.ties
        assert nearest[free].tolist() == labeling.labels[free].tolist()

    @staticmethod
    def off_grid_case(name, rng):
        """(G, 5 sites, a grid that holds none of them, 2000 points)."""
        if name == "negentropy":
            sites, grid = rng.dirichlet(np.ones(3), size=5), TypeSpace(simplex_grid(3, 4))
            return NegEntropy(), sites, grid, rng.dirichlet(np.ones(3), size=2000)
        axis = np.linspace(-1.0, 1.0, 5)
        plane = TypeSpace(np.array([[x, y] for x in axis for y in axis]))
        if name == "squarednorm":
            g, sites = SquaredNorm(), rng.uniform(-1.0, 1.0, size=(5, 2))
        else:  # tangent planes of ||t||^2 at 25 centers: many pieces are active off the grid
            centers = rng.uniform(-1.0, 1.0, size=(25, 2))
            g, sites = MaxAffine(2.0 * centers, -np.vecdot(centers, centers)), centers[:5]
        return g, sites, plane, rng.uniform(-1.0, 1.0, size=(2000, 2))

    @pytest.mark.parametrize("name", ["squarednorm", "negentropy", "maxaffine"])
    def test_labels_are_the_divergence_nearest_sites_off_the_grid(self, name):
        # the grid conjugate at sites off the grid mislabeled 1-6 % of these points
        g, sites, grid, pts = self.off_grid_case(name, np.random.default_rng(0))
        assert not (grid.points[:, None] == sites).all(axis=2).any()
        labels = power_cells(bregman_to_power(g, sites, grid), pts).labels
        assert labels.tolist() == bregman_matrix(g, pts, sites).argmin(axis=1).tolist()

    def test_single_site_trivial(self):
        sites = np.array([[0.5, 0.5]])
        diag = bregman_to_power(NegEntropy(), sites, TypeSpace(sites))
        labeling = power_cells(diag, simplex_grid(2, 5))
        assert np.all(labeling.labels == 0)


class TestSameCellsDifferentFunctions:
    """Regression: two genuinely different convex functions (one kinked,
    one smooth) induce the same finite-report labeling, so a labeling
    never pins down its generating function."""

    TS = TypeSpace([[-1.0], [0.0], [1.0]])
    PROBES = TypeSpace([[-2.0], [-1.0], [0.0], [1.0], [2.0]])

    @staticmethod
    def _direct_table(g_val, g_grad, ts):
        from elicit import ScoreTable

        linear = np.array([[g_grad(t[0])] for t in ts.points])
        constant = np.array(
            [g_val(t[0]) - g_grad(t[0]) * t[0] for t in ts.points]
        )
        return ScoreTable(reports=[0, 1, 2], linear=linear, constant=constant)

    def test_kinked_and_smooth_functions_agree_on_labels(self):
        kinked = self._direct_table(
            lambda t: abs(t) + t * t / 2.0, lambda t: np.sign(t) + t, self.TS
        )
        smooth = self._direct_table(lambda t: t * t / 2.0, lambda t: t, self.TS)
        from elicit import check_truthful

        assert check_truthful(kinked, self.TS).passed
        assert check_truthful(smooth, self.TS).passed
        labels_kinked = kinked.payoff_matrix(self.PROBES).argmax(axis=0)
        labels_smooth = smooth.payoff_matrix(self.PROBES).argmax(axis=0)
        assert labels_kinked.tolist() == [0, 0, 1, 2, 2]
        assert labels_smooth.tolist() == labels_kinked.tolist()
        assert not np.allclose(kinked.payoff_matrix(self.TS), smooth.payoff_matrix(self.TS))
