"""Acceptance suite: one test per criterion, each pinned to its stated
tolerance and printing a PASS/FAIL line (run with -s to see them)."""

import functools
import time

import numpy as np
import pytest

from elicit import (
    LabeledSample,
    LinearFamily,
    NegEntropy,
    OutcomeScoreTable,
    PowerDiagramSpec,
    ScoreTable,
    SquaredNorm,
    StepAllocation,
    TypeSpace,
    bregman_to_power,
    check_cmon,
    check_duality_identities,
    check_local_truthful,
    check_proper,
    check_truthful,
    check_wmon_cells,
    conjugate,
    eval_convex,
    fit_weights,
    make_direct_score,
    make_scoring_rule,
    myerson_payment,
    power_cells,
    revenue_interval,
    rochet_payments,
    score_from_diagram,
    simplex_grid,
)
from elicit.duality import biconjugate
from helpers import brute_force_cmon, kl_divergence, random_max_affine


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}")
                raise
            print(f"PASS  {name}")

        return wrapper

    return deco


@criterion("surplus intervals on the three-type line instance (exact, <10ms)")
def test_interval_reproduction():
    ts = TypeSpace([[0.0], [1.0], [2.0]])
    fam = LinearFamily([[0.0], [1.0], [2.0]])
    revenue_interval(ts, fam, {0: 0.0}, target=1)  # warm caches
    start = time.perf_counter()
    one = revenue_interval(ts, fam, {0: 0.0}, target=1)
    two = revenue_interval(ts, fam, {0: 0.0}, target=2)
    narrowed = revenue_interval(ts, fam, {0: 0.0, 1: 0.5}, target=2)
    elapsed = time.perf_counter() - start
    assert abs(one.lower - 0.0) <= 1e-12 and abs(one.upper - 1.0) <= 1e-12
    assert abs(two.lower - 1.0) <= 1e-12 and abs(two.upper - 3.0) <= 1e-12
    assert abs(narrowed.lower - 1.5) <= 1e-12 and abs(narrowed.upper - 2.5) <= 1e-12
    assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"


@criterion("direct-score round trip on 200 random max-affine instances (<5s)")
def test_direct_score_round_trip():
    rng = np.random.default_rng(20240 + 1)
    start = time.perf_counter()
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        g = random_max_affine(rng, dim, max_pieces=8)
        m = int(rng.integers(2, 51))
        pts = rng.uniform(-2.0, 2.0, size=(m, dim))
        ts = TypeSpace(pts)
        report = check_truthful(make_direct_score(g, ts), ts, tol=1e-9)
        assert report.passed
        assert report.info["min_slack"] >= -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@criterion("Brier/log properness on simplex grids; linear rule fails correctly")
def test_scoring_rule_round_trip():
    for n_outcomes in (2, 3):
        grid = simplex_grid(n_outcomes, 10)
        brier = make_scoring_rule(SquaredNorm(), grid)
        assert check_proper(brier, strict=True, tol=1e-9).passed
        log = make_scoring_rule(NegEntropy(), grid)
        assert check_proper(log, tol=1e-9).passed
    grid2 = simplex_grid(2, 10)
    linear = OutcomeScoreTable(reports=grid2, payoffs=grid2.copy())
    report = check_proper(linear, tol=1e-9)
    assert not report.passed
    # the first report within 1e-9 of each belief, in max norm
    truth, vertex = (linear.distances([[0.6, 0.4], [1.0, 0.0]]) <= 1e-9).argmax(axis=1).tolist()
    assert any(w.indices == (truth, vertex) for w in report.witnesses)


@criterion("cycle detection agrees with exhaustive enumeration on 500 draws")
def test_cmon_oracle_equivalence():
    rng = np.random.default_rng(20240 + 2)
    disagreements = 0
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        ts = TypeSpace(rng.uniform(-2.0, 2.0, size=(m, dim)))
        fam = LinearFamily(rng.uniform(-2.0, 2.0, size=(m, dim)))
        oracle_pass, _ = brute_force_cmon(ts, fam, tol=1e-9)
        if check_cmon(ts, fam, tol=1e-9).passed != oracle_pass:
            disagreements += 1
    assert disagreements == 0


@criterion("step-allocation payments match path-sum payments to 1e-9")
def test_myerson_rochet_consistency():
    rng = np.random.default_rng(20240 + 3)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        bps = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 4.0, size=k - 1))])
        vals = np.sort(rng.uniform(0.0, 3.0, size=k))
        alloc = StepAllocation(breakpoints=bps, values=vals)
        extra = rng.uniform(0.0, 5.0, size=8)
        grid = np.unique(np.concatenate([bps, extra]))
        grid = np.sort(np.unique(np.concatenate([[0.0], grid])))
        ts = TypeSpace(grid.reshape(-1, 1))
        fam = LinearFamily([[alloc.value_at(t)] for t in grid])
        result = rochet_payments(ts, fam, t0=0)
        for i, t in enumerate(grid):
            assert abs(myerson_payment(alloc, float(t)) - result.payments[i]) <= 1e-9


@criterion("diagram scores and power labels agree on 100 random diagrams")
def test_diagram_score_equivalence():
    rng = np.random.default_rng(20240 + 4)
    mismatches = 0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        n_sites = int(rng.integers(2, 9))
        sites = rng.uniform(-2.0, 2.0, size=(n_sites, dim))
        diag = PowerDiagramSpec(sites=sites, weights=rng.uniform(-1.0, 1.0, n_sites))
        pts = rng.uniform(-3.0, 3.0, size=(1000, dim))
        labeling = power_cells(diag, pts)
        values = score_from_diagram(diag).payoff_matrix(TypeSpace(pts))
        argmax = values.argmax(axis=0)
        keep = ~labeling.ties
        mismatches += int(np.sum(argmax[keep] != labeling.labels[keep]))
    assert mismatches == 0


@criterion("weight fitting matches pairwise monotonicity on 200 samples")
def test_saks_yu_desk_scale():
    rng = np.random.default_rng(20240 + 5)
    done_good = done_broken = 0
    while done_good < 100 or done_broken < 100:
        dim = int(rng.integers(1, 4))
        n_sites = int(rng.integers(2, 7))
        sites = rng.uniform(-2.0, 2.0, size=(n_sites, dim))
        diag = PowerDiagramSpec(sites=sites, weights=rng.uniform(-1.0, 1.0, n_sites))
        pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(6, 15)), dim))
        labels = power_cells(diag, pts).labels
        if done_broken < 100:
            swapped = _swap_to_break(rng, sites, pts, labels)
            if swapped is not None:
                sample = LabeledSample(points=pts, labels=swapped)
                fit = fit_weights(sites, sample, tol=1e-9)
                wmon = check_wmon_cells(sites, sample, tol=1e-9)
                assert fit.feasible == wmon.passed == False  # noqa: E712
                done_broken += 1
                continue
        if done_good < 100:
            sample = LabeledSample(points=pts, labels=labels)
            fit = fit_weights(sites, sample, tol=1e-9)
            wmon = check_wmon_cells(sites, sample, tol=1e-9)
            assert fit.feasible == wmon.passed == True  # noqa: E712
            done_good += 1


def _swap_to_break(rng, sites, pts, labels):
    idx = np.arange(len(pts))
    rng.shuffle(idx)
    for a in idx:
        for b in idx:
            i, j = labels[a], labels[b]
            if i == j:
                continue
            if float((sites[j] - sites[i]) @ (pts[b] - pts[a])) > 1e-6:
                swapped = labels.copy()
                swapped[a], swapped[b] = j, i
                return swapped
    return None


@criterion("divergence-to-power conversion matches KL argmin on the 2-simplex")
def test_bregman_conversion():
    grid_pts = simplex_grid(3, 20)
    grid = TypeSpace(grid_pts)
    sites = np.array([[0.6, 0.2, 0.2], [0.1, 0.8, 0.1], [0.25, 0.3, 0.45]])
    diag = bregman_to_power(NegEntropy(), sites, grid)
    labeling = power_cells(diag, grid_pts)
    mismatches = 0
    for k, t in enumerate(grid_pts):
        if labeling.ties[k]:
            continue
        oracle = int(np.argmin([kl_divergence(t, s) for s in sites]))
        mismatches += int(oracle != labeling.labels[k])
    assert mismatches == 0


@criterion("duality identities exact on a 21x21 grid; biconjugate fixed point")
def test_duality_identities():
    axis = np.linspace(-1.0, 1.0, 21)
    xx, yy = np.meshgrid(axis, axis)
    grid = TypeSpace(np.column_stack([xx.ravel(), yy.ravel()]))
    duals = 2.0 * grid.points
    g = SquaredNorm()
    report = check_duality_identities(g, grid, duals, tol=1e-9)
    assert report.passed
    assert report.info["max_fenchel_young_violation"] <= 1e-9
    # conjugate is exact here: the maximizer of <d, t> - G(t) is on the grid
    for d, t in zip(duals[::20], grid.points[::20]):
        exact = float(d @ d) / 4.0
        assert abs(conjugate(g, d, grid) - exact) <= 1e-12
    worst = max(
        abs(biconjugate(g, t, grid, duals) - eval_convex(g, t))
        for t in grid.points
    )
    assert worst <= 1e-6


@criterion("weak-local and global truthfulness verdicts coincide, 200 instances")
def test_local_global_coincide():
    rng = np.random.default_rng(20240 + 6)
    grid = np.linspace(0.0, 2.0, 21)
    ts = TypeSpace(grid.reshape(-1, 1))
    radius = 1.5 * (grid[1] - grid[0])
    for trial in range(200):
        if trial % 2 == 0:
            g = random_max_affine(rng, 1, max_pieces=6)
            score = make_direct_score(g, ts)
        else:
            score = ScoreTable(
                reports=list(range(21)),
                linear=rng.uniform(-2.0, 2.0, size=(21, 1)),
                constant=rng.uniform(-2.0, 2.0, size=21),
            )
        report = check_local_truthful(
            score, ts, report_of=range(21), radius=radius, tol=1e-9
        )
        assert report.info["agrees"], f"trial {trial}: local != global"
