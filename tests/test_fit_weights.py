"""Weight fitting on the difference-constraint kernel, checked against
the dense simplex it replaced and against the inputs alone."""

import warnings

import numpy as np
import pytest

from elicit import LabeledSample, PowerDiagramSpec, fit_weights, lp, power_cells
from helpers import loop_fit_weights, recheck_fit_certificate

TOL = 1e-9


def random_samples(seed, count):
    """Power-diagram labelings, some with a few points relabeled at
    random, so that both verdicts occur and some sites label nothing."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        n_sites = int(rng.integers(2, 7))
        sites = rng.uniform(-2.0, 2.0, size=(n_sites, dim))
        diag = PowerDiagramSpec(sites=sites, weights=rng.uniform(-1.0, 1.0, n_sites))
        pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(3, 13)), dim))
        labels = power_cells(diag, pts).labels
        for k in rng.choice(len(pts), size=int(rng.integers(0, 4)), replace=False):
            labels[k] = rng.integers(n_sites)
        yield sites, LabeledSample(points=pts, labels=labels)


def reference_verdict(sites, sample):
    rows, rhs, _ = loop_fit_weights(sites, sample)
    return lp.feasible_point(rows, rhs, tol=TOL).feasible


def assert_in_labeled_cells(sites, sample, weights, tol):
    sq = ((sample.points[:, None, :] - sites[None, :, :]) ** 2).sum(axis=-1)
    costs = sq - weights[None, :]
    own = costs[np.arange(len(sample)), sample.labels]
    assert np.all(own <= costs.min(axis=1) + tol)


def assert_canonical(sites, sample, weights, tol):
    """Min 0, and no weight can rise alone: every site below the top
    weight has a tight constraint w_j - w_i = c_ij into it."""
    rows, rhs, meta = loop_fit_weights(sites, sample)
    c = np.full((len(sites), len(sites)), np.inf)
    for (_, i, j), b in zip(meta, rhs):
        c[i, j] = min(c[i, j], b)
    assert weights.min() == 0.0
    for j in np.flatnonzero(weights < weights.max() - tol):
        assert np.any(weights[j] - weights >= c[:, j] - tol)


def test_verdict_matches_the_dense_simplex():
    verdicts = []
    for sites, sample in random_samples(2026, 300):
        fit = fit_weights(sites, sample, tol=TOL)
        assert fit.feasible == reference_verdict(sites, sample)
        verdicts.append(fit.feasible)
    assert 50 <= sum(verdicts) <= 250


def test_feasible_weights_are_canonical_and_place_every_point():
    seen = 0
    for sites, sample in random_samples(7, 200):
        fit = fit_weights(sites, sample, tol=TOL)
        if fit.feasible:
            assert not fit.witnesses
            assert_in_labeled_cells(sites, sample, fit.weights, TOL)
            assert_canonical(sites, sample, fit.weights, TOL)
            seen += 1
    assert seen >= 50


def test_infeasible_certificate_rechecks_from_the_inputs():
    lengths = []
    for sites, sample in random_samples(11, 200):
        fit = fit_weights(sites, sample, tol=TOL)
        if not fit.feasible:
            assert fit.weights is None
            assert {w.kind for w in fit.witnesses} == {"constraint"}
            edges = [(w.indices, w.slack) for w in fit.witnesses]
            recheck_fit_certificate(sites, sample.points, sample.labels, edges, TOL)
            lengths.append(len(edges))
    assert len(lengths) >= 50
    assert max(lengths) >= 3  # cycles longer than a pair occur


def test_three_site_cycle_sums_to_minus_ten():
    sites = np.array([[0.0, 3.0], [3.0, 1.0], [1.0, -3.0]])
    sample = LabeledSample(
        points=[[2.0, 4.0], [-3.0, -2.0], [1.0, -2.0]], labels=[1, 0, 2]
    )
    fit = fit_weights(sites, sample)
    assert not fit.feasible
    assert sum(w.slack for w in fit.witnesses) == pytest.approx(-10.0, abs=1e-12)
    edges = [(w.indices, w.slack) for w in fit.witnesses]
    recheck_fit_certificate(sites, sample.points, sample.labels, edges, TOL)



def test_overflowing_power_costs_are_rejected_without_a_warning():
    # finite points whose squared distances to the sites exceed the float
    # range; the constraint graph would hold nan edges
    sample = LabeledSample(points=[[1e200], [-1e200], [0.5]], labels=[0, 1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow the float range"):
            fit_weights([[0.0], [1.0]], sample)
