"""The batched conjugate, row evaluation and subgradients, and the
constructors built on them, against the one-at-a-time loops of
``helpers``: bitwise equal values (compared as bytes, so the sign of a
zero counts) and the same errors."""

import numpy as np
import pytest

from elicit import (
    DimensionMismatchError,
    DomainError,
    MaxAffine,
    NegEntropy,
    SquaredNorm,
    TypeSpace,
    UnreachableActionError,
    biconjugate,
    bregman_to_power,
    make_decision_score,
    make_direct_score,
    make_scoring_rule,
    simplex_grid,
    subgradient,
)
from elicit.core import _eval_rows, _grad_rows, conjugate, eval_convex
from helpers import (
    loop_bregman_to_power,
    loop_conjugate,
    loop_eval_convex,
    loop_expected_value,
    loop_make_decision_score,
    loop_make_direct_score,
    loop_make_scoring_rule,
    loop_subgradient,
    random_max_affine,
    random_typespace,
)

SEEDS = range(10)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def simplex_rows(rng, n, m):
    """Lattice points plus random rows, with exact zeros and +-1e-10
    coordinates, all on the simplex within tolerance."""
    pts = rng.dirichlet(np.ones(n), size=m)
    pts[rng.random(pts.shape) < 0.3] = 0.0
    tiny = rng.random(pts.shape) < 0.1
    pts[tiny] = rng.choice([1e-10, -1e-10], size=int(tiny.sum()))
    pts[:, 0] = 1.0 - pts[:, 1:].sum(axis=1)
    rows = np.vstack([simplex_grid(n, 3), pts])
    ok = (rows.min(axis=1) >= -1e-9) & (np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)
    return np.unique(rows[ok], axis=0)


def assert_batch_matches_loop(g, duals, grid):
    batch = conjugate(g, duals, grid)
    assert bits(batch) == bits([loop_conjugate(g, d, grid) for d in duals])
    for k in (0, len(duals) - 1):  # the one-vector form is the batch's row
        one = conjugate(g, duals[k], grid)
        assert isinstance(one, float)
        assert bits(one) == bits(batch[k])
    return batch


# ---------------------------------------------------------------------------
# G on rows


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [2, 3, 8, 9, 12])
def test_entropy_rows_with_zeros_match_the_loop(seed, n):
    # from 8 coordinates on numpy sums in eight lanes, so a row that kept
    # its zeros would regroup the sum of its positive terms
    pts = simplex_rows(np.random.default_rng(seed), n, 200)
    assert (pts == 0.0).any() and (np.abs(pts) == 1e-10).any()
    ref = [loop_eval_convex(NegEntropy(), t) for t in pts]
    assert bits(_eval_rows(NegEntropy(), pts)) == bits(ref)
    assert bits(eval_convex(NegEntropy(), pts)) == bits(ref)
    assert bits([eval_convex(NegEntropy(), t) for t in pts]) == bits(ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_squared_norm_and_max_affine_rows_match_the_loop(seed):
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3, 5):
        pts = rng.normal(size=(40, dim))
        for g in (SquaredNorm(), random_max_affine(rng, dim, max_pieces=30)):
            ref = [loop_eval_convex(g, t) for t in pts]
            assert bits(_eval_rows(g, pts)) == bits(ref)
            assert bits(eval_convex(g, pts)) == bits(ref)
            assert bits([eval_convex(g, t) for t in pts]) == bits(ref)


# ---------------------------------------------------------------------------
# the grid conjugate


@pytest.mark.parametrize("seed", SEEDS)
def test_entropy_conjugate_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    for n in (3, 9):
        grid = TypeSpace(simplex_rows(rng, n, 60))
        assert_batch_matches_loop(NegEntropy(), rng.normal(scale=3.0, size=(25, n)), grid)


@pytest.mark.parametrize("seed", SEEDS)
def test_squared_norm_conjugate_value_both_branches(seed):
    rng = np.random.default_rng(seed)
    grid = random_typespace(rng, 2, max_points=80)
    lo, hi = grid.points.min(axis=0), grid.points.max(axis=0)
    inside = 2.0 * rng.uniform(lo, hi, size=(20, 2))  # d/2 in the box
    outside = 2.0 * (hi + rng.uniform(0.1, 1.0, size=(20, 2)))
    duals = np.vstack([inside, outside])
    values = assert_batch_matches_loop(SquaredNorm(), duals, grid)
    # the closed form took the inside rows, the grid max the others
    evals = _eval_rows(SquaredNorm(), grid.points)
    assert bits(values[20:]) == bits([np.max(grid.points @ d - evals) for d in outside])
    assert bits(values[:20]) == bits(np.vecdot(inside / 2.0, inside / 2.0))


@pytest.mark.parametrize("seed", SEEDS)
def test_max_affine_conjugate_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    for dim in (2, 3, 4):
        g = random_max_affine(rng, dim, max_pieces=12)
        grid = random_typespace(rng, dim, max_points=120)
        assert_batch_matches_loop(g, rng.normal(scale=2.0, size=(30, dim)), grid)


@pytest.mark.parametrize("seed", SEEDS)
def test_1d_max_affine_breakpoints_beat_a_coarse_grid(seed):
    rng = np.random.default_rng(seed)
    g = random_max_affine(rng, 1, max_pieces=12)
    g = MaxAffine(np.vstack([g.slopes, [[3.0], [-3.0]]]), np.append(g.intercepts, [0.0, 0.0]))
    grid = TypeSpace([[-2.0], [-0.5], [1.5]])
    duals = rng.uniform(-4.0, 4.0, size=(40, 1))
    batch = assert_batch_matches_loop(g, duals, grid)
    on_grid = (grid.points @ duals.T - _eval_rows(g, grid.points)[:, None]).max(axis=0)
    assert (batch > on_grid).sum() >= 5


def test_1d_max_affine_breakpoint_keeps_a_negative_zero():
    # d * x at the kink x = 0 is -0.0 for d < 0, and the loop keeps it
    absval = MaxAffine([[1.0], [-1.0]], [0.0, 0.0])
    grid = TypeSpace([[-1.0], [2.0]])
    batch = assert_batch_matches_loop(absval, np.array([[-0.5], [0.5]]), grid)
    assert np.signbit(batch[0]) and not np.signbit(batch[1])


@pytest.mark.parametrize("seed", SEEDS)
def test_biconjugate_and_bregman_to_power_match_the_loop(seed):
    rng = np.random.default_rng(seed)
    grid = random_typespace(rng, 2, max_points=60)
    duals = rng.normal(scale=3.0, size=(30, 2))
    for t in grid.points[:5]:
        ref = max(float(t @ d) - loop_conjugate(SquaredNorm(), d, grid) for d in duals)
        assert bits(biconjugate(SquaredNorm(), t, grid, duals)) == bits(ref)

    sgrid = TypeSpace(simplex_rows(rng, 3, 40))
    sites = sgrid.points[sgrid.points.min(axis=1) >= 1e-3][:6]
    diag = bregman_to_power(NegEntropy(), sites, sgrid)
    ref_sites, ref_weights = loop_bregman_to_power(NegEntropy(), sites)
    assert bits(diag.sites) == bits(ref_sites)
    assert bits(diag.weights) == bits(ref_weights)


# ---------------------------------------------------------------------------
# errors


def same_error(call, reference):
    with pytest.raises(Exception) as got:
        call()
    with pytest.raises(Exception) as want:
        reference()
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    return got.value


def test_off_simplex_grid_row_raises_like_the_loop():
    grid = TypeSpace([[0.2, 0.3, 0.5], [0.6, 0.6, -0.2], [0.7, 0.7, -0.4]])
    duals = np.zeros((4, 3))
    err = same_error(
        lambda: conjugate(NegEntropy(), duals, grid),
        lambda: loop_conjugate(NegEntropy(), duals[0], grid),
    )
    assert isinstance(err, DomainError) and "[0.6, 0.6, -0.2]" in str(err)
    same_error(
        lambda: conjugate(NegEntropy(), duals[0], grid),
        lambda: loop_conjugate(NegEntropy(), duals[0], grid),
    )


@pytest.mark.parametrize("g", [NegEntropy(), SquaredNorm(), MaxAffine([[1.0, 0.0]], [0.0])])
def test_dual_of_wrong_dimension_raises_like_the_loop(g):
    grid = TypeSpace([[0.5, 0.5], [1.0, 0.0]])
    duals = np.ones((3, 3))
    err = same_error(lambda: conjugate(g, duals, grid), lambda: loop_conjugate(g, duals[0], grid))
    assert isinstance(err, DimensionMismatchError)
    same_error(lambda: conjugate(g, duals[0], grid), lambda: loop_conjugate(g, duals[0], grid))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_dual_raises_like_the_loop(bad):
    grid = TypeSpace([[0.5, 0.5], [1.0, 0.0]])
    duals = np.ones((3, 2))
    duals[1, 0] = bad
    ref = lambda: [loop_conjugate(SquaredNorm(), d, grid) for d in duals]  # noqa: E731
    err = same_error(lambda: conjugate(SquaredNorm(), duals, grid), ref)
    assert isinstance(err, ValueError)
    same_error(lambda: conjugate(SquaredNorm(), duals[1], grid), ref)


def test_max_affine_of_wrong_dimension_raises_like_the_loop():
    g = MaxAffine([[1.0, 0.0]], [0.0])
    grid = TypeSpace([[0.5], [1.0]])
    same_error(lambda: conjugate(g, [[1.0]], grid), lambda: loop_conjugate(g, [1.0], grid))
    same_error(lambda: eval_convex(g, [1.0]), lambda: loop_eval_convex(g, [1.0]))


# ---------------------------------------------------------------------------
# subgradients on rows, and the constructors built on them


def tied_max_affine(rng, dim):
    """Integer pieces, some repeated, so integer points hit exact ties
    between pieces and the lowest index must win."""
    slopes = rng.integers(-3, 4, size=(int(rng.integers(2, 9)), dim)).astype(float)
    intercepts = rng.integers(-3, 4, size=len(slopes)).astype(float)
    copies = rng.integers(0, len(slopes), size=3)
    return MaxAffine(np.vstack([slopes, slopes[copies]]), np.append(intercepts, intercepts[copies]))


def specs(rng, dim):
    return [tied_max_affine(rng, dim), random_max_affine(rng, dim, max_pieces=30), SquaredNorm()]


def same_arrays(got, want):
    """Equal as arrays, -inf entries included, and bit for bit."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert bits(got) == bits(want)


def interior(pts):
    return pts[pts.min(axis=1) >= 1e-12]


@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_rows_match_the_loop(seed):
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3, 4, 7, 9, 33):
        pts = np.vstack([rng.integers(-2, 3, size=(30, dim)), rng.normal(size=(30, dim))])
        for g in specs(rng, dim):
            ref = [loop_subgradient(g, t) for t in pts]
            same_arrays(_grad_rows(g, pts), ref)
            same_arrays([subgradient(g, t) for t in pts], ref)
    for n in (2, 3, 8, 9, 12):
        pts = interior(simplex_rows(rng, n, 200))
        same_arrays(_grad_rows(NegEntropy(), pts), [loop_subgradient(NegEntropy(), t) for t in pts])


@pytest.mark.parametrize("seed", SEEDS)
def test_make_scoring_rule_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    for n in (2, 3, 8, 9):
        pts = simplex_rows(rng, n, 120)
        boundary = pts[pts.min(axis=1) >= 0.0]  # ln of a coordinate -1e-10 is nan
        for g, rows in [(NegEntropy(), boundary), (NegEntropy(), interior(pts))] + [
            (g, pts) for g in specs(rng, n)
        ]:
            table = make_scoring_rule(g, rows)
            reports, payoffs = loop_make_scoring_rule(g, rows)
            same_arrays(table.reports, reports)
            same_arrays(table.payoffs, payoffs)
        assert (make_scoring_rule(NegEntropy(), boundary).payoffs == -np.inf).any()


@pytest.mark.parametrize("seed", SEEDS)
def test_make_direct_score_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3, 7):
        ts = random_typespace(rng, dim, max_points=60)
        for g in specs(rng, dim):
            score = make_direct_score(g, ts)
            linear, constant = loop_make_direct_score(g, ts)
            same_arrays(score.linear, linear)
            same_arrays(score.constant, constant)
    ts = TypeSpace(interior(simplex_rows(rng, 4, 80)))
    score = make_direct_score(NegEntropy(), ts)
    linear, constant = loop_make_direct_score(NegEntropy(), ts)
    same_arrays(score.linear, linear)
    same_arrays(score.constant, constant)


def decision_inputs(rng, n_actions, n_outcomes, m):
    reports = [rng.dirichlet(np.ones(n_outcomes), size=n_actions) for _ in range(m)]
    decisions = rng.dirichlet(np.ones(n_actions), size=m)
    return reports, decisions


@pytest.mark.parametrize("seed", SEEDS)
def test_make_decision_score_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    for n_actions, n_outcomes in [(1, 3), (2, 2), (3, 4), (4, 9)]:
        reports, decisions = decision_inputs(rng, n_actions, n_outcomes, 25)
        # the last action carries no slope in the max-affine spec, so the
        # rule may drop it: those rows are unconstrained placeholders
        g = tied_max_affine(rng, n_actions * n_outcomes)
        g.slopes.reshape(len(g.slopes), n_actions, n_outcomes)[:, -1] = 0.0
        dropped = decisions.copy()
        if n_actions > 1:
            off = rng.random(len(dropped)) < 0.4
            dropped[off, -1] = 0.0
            dropped[off, 0] = 1.0 - dropped[off, 1:].sum(axis=1)
        cases = [(SquaredNorm(), decisions), (g, dropped)]
        if n_actions == 1:
            cases.append((NegEntropy(), decisions))
        for spec, rule in cases:
            got = make_decision_score(spec, rule, reports)
            scores, unconstrained = loop_make_decision_score(spec, rule, reports, 1e-9)
            same_arrays(got.scores, scores)
            assert got.unconstrained == unconstrained
            for k, belief in enumerate(decision_inputs(rng, n_actions, n_outcomes, 25)[0]):
                value = got.expected_value(k, belief)
                assert bits(value) == bits(loop_expected_value(got, k, belief))
        if n_actions > 1:
            assert any(got.unconstrained)


@pytest.mark.parametrize("seed", SEEDS)
def test_bregman_to_power_matches_the_per_site_loop(seed):
    rng = np.random.default_rng(seed)
    grid = TypeSpace(simplex_rows(rng, 3, 40))
    cases = [(NegEntropy(), interior(grid.points)[:8])]
    cases += [(g, grid.points[:8]) for g in specs(rng, 3)]
    for g, sites in cases:
        # a power diagram takes distinct sites: one point per active piece
        duals = [loop_subgradient(g, t) for t in sites]
        sites = sites[np.sort(np.unique(duals, axis=0, return_index=True)[1])]
        diag = bregman_to_power(g, sites, grid)  # the grid is ignored
        ref_sites, ref_weights = loop_bregman_to_power(g, sites)
        same_arrays(diag.sites, ref_sites)
        same_arrays(diag.weights, ref_weights)


def bad_simplex_rows(rng, n, m):
    """Simplex rows, some on the boundary, some off the simplex and some
    both (a negative coordinate), so the first bad row in order decides
    which error is raised."""
    rows = rng.dirichlet(np.ones(n), size=m)
    kinds = rng.choice(4, size=m, p=[0.55, 0.15, 0.15, 0.15])
    rows[kinds == 1, 0] = 0.0
    rows[kinds == 1, 1:] /= rows[kinds == 1, 1:].sum(axis=1, keepdims=True)
    rows[kinds == 2] *= 1.5
    rows[kinds == 3, 0] = -0.1
    return rows


@pytest.mark.parametrize("seed", SEEDS)
def test_a_bad_row_raises_like_the_loop(seed):
    rng = np.random.default_rng(seed)
    pts = bad_simplex_rows(rng, 3, 12)
    same_error(
        lambda: _grad_rows(NegEntropy(), pts),
        lambda: [loop_subgradient(NegEntropy(), t) for t in pts],
    )
    same_error(
        lambda: make_direct_score(NegEntropy(), TypeSpace(pts)),
        lambda: loop_make_direct_score(NegEntropy(), TypeSpace(pts)),
    )
    grid = TypeSpace(simplex_grid(3, 4))
    same_error(
        lambda: bregman_to_power(NegEntropy(), pts, grid),
        lambda: loop_bregman_to_power(NegEntropy(), pts),
    )
    same_error(
        lambda: make_scoring_rule(NegEntropy(), pts),
        lambda: loop_make_scoring_rule(NegEntropy(), pts),
    )
    # a report of the wrong dimension for the max-affine spec
    g = random_max_affine(rng, 4)
    rows = simplex_rows(rng, 3, 20)
    for f in (lambda: make_scoring_rule(g, rows), lambda: _grad_rows(g, rows)):
        err = same_error(f, lambda: loop_make_scoring_rule(g, rows))
        assert isinstance(err, DimensionMismatchError)
    # squared norm: every report must let each action happen
    reports, decisions = decision_inputs(rng, 3, 2, 15)
    dead = rng.random(decisions.shape) < 0.15
    dead[rng.integers(15), rng.integers(3)] = True
    rule = np.where(dead, 0.0, decisions)
    rule /= np.where(rule.sum(axis=1) > 0, rule.sum(axis=1), 1.0)[:, None]
    rule[rule.sum(axis=1) == 0, 0] = 1.0
    err = same_error(
        lambda: make_decision_score(SquaredNorm(), rule, reports),
        lambda: loop_make_decision_score(SquaredNorm(), rule, reports, 1e-9),
    )
    assert isinstance(err, UnreachableActionError)
