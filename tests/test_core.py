import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import (
    DimensionMismatchError,
    DomainError,
    LinearFamily,
    MaxAffine,
    NegEntropy,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    bregman_divergence,
    check_subgradient_selection,
    conjugate,
    eval_convex,
    subgradient,
)
from elicit import core
from helpers import central_diff_grad, random_max_affine, random_typespace

ABS = MaxAffine(slopes=[[1.0], [-1.0]], intercepts=[0.0, 0.0])  # |t|
HINGE = MaxAffine(slopes=[[0.0], [1.0]], intercepts=[0.0, -1.0])  # max(0, t-1)


def grid_1d(lo, hi, step):
    return TypeSpace(np.arange(lo, hi + step / 2, step).reshape(-1, 1))


class TestTypes:
    def test_typespace_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TypeSpace([[0.0, 1.0], [0.0, 1.0]])

    def test_typespace_rejects_empty(self):
        with pytest.raises(ValueError):
            TypeSpace(np.zeros((0, 2)))

    def test_family_alignment(self):
        ts = TypeSpace([[0.0], [1.0]])
        with pytest.raises(DimensionMismatchError):
            LinearFamily([[1.0]]).check_aligned(ts)

    def test_score_table_rejects_posinf_constant(self):
        with pytest.raises(ValueError):
            ScoreTable(reports=[0], linear=[[1.0]], constant=[math.inf])

    def test_score_table_allows_neginf_constant(self):
        table = ScoreTable(reports=[0, 1], linear=[[1.0], [0.0]], constant=[-math.inf, 0.0])
        assert table.evaluate(0, [5.0]) == -math.inf
        assert table.evaluate(1, [5.0]) == 0.0

    def test_regularity_requires_one_finite_row(self):
        table = ScoreTable(reports=[0], linear=[[0.0]], constant=[-math.inf])
        with pytest.raises(ValueError):
            table.validate_regular(TypeSpace([[0.0]]))


class TestEval:
    def test_squared_norm_direct_arithmetic(self):
        # oracle: <t, t> by hand = 0.25 + 0.25
        assert eval_convex(SquaredNorm(), [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_abs_at_zero(self):
        assert eval_convex(ABS, [0.0]) == 0.0

    def test_neg_entropy_vertex_convention(self):
        # 0 ln 0 = 0 and 1 ln 1 = 0
        assert eval_convex(NegEntropy(), [1.0, 0.0]) == 0.0

    def test_neg_entropy_off_simplex_raises(self):
        with pytest.raises(DomainError):
            eval_convex(NegEntropy(), [0.5, 0.6])

    def test_max_affine_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            eval_convex(ABS, [1.0, 2.0])


class TestSubgradient:
    def test_tie_breaks_to_first_piece(self):
        assert subgradient(ABS, [0.0]) == pytest.approx([1.0])

    def test_squared_norm_gradient(self):
        assert subgradient(SquaredNorm(), [1.0, 2.0]) == pytest.approx([2.0, 4.0])

    def test_neg_entropy_closed_form_vs_finite_difference(self):
        t = np.array([0.5, 0.5])
        expect = 1.0 + np.log(t)

        def f(x):
            # renormalizing keeps the perturbed point on the simplex hull
            return float(np.sum(x * np.log(x)))

        fd = central_diff_grad(f, t, h=1e-6)
        got = subgradient(NegEntropy(), t)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(fd, abs=1e-4)

    def test_neg_entropy_boundary_raises(self):
        with pytest.raises(DomainError):
            subgradient(NegEntropy(), [1.0, 0.0])

    def test_neg_entropy_nan_row_is_off_the_simplex(self):
        # every comparison with nan is false; the row used to pass the
        # simplex check and get the subgradient nan
        pts = np.array([[0.5, 0.5], [math.nan, math.nan]])
        assert core._off_simplex(pts).tolist() == [False, True]
        with pytest.raises(DomainError, match=r"point \[nan, nan\] is not on the"):
            core._grad_rows(NegEntropy(), pts)

    @pytest.mark.parametrize("g", [SquaredNorm(), ABS, HINGE])
    def test_satisfies_subgradient_inequality_on_grid(self, g):
        dim = 2 if isinstance(g, SquaredNorm) else 1
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2, 2, size=(25, dim))
        ts = TypeSpace(pts)
        fam = LinearFamily(np.vstack([subgradient(g, t) for t in ts.points]))
        report = check_subgradient_selection(g, fam, ts)
        assert report.passed


class TestConjugate:
    def test_hinge_conjugate_brute_force(self):
        # independent oracle: enumerate sup over the same grid directly
        grid = grid_1d(0.0, 2.0, 0.01)
        brute = max(0.5 * t - max(0.0, t - 1.0) for t in grid.points[:, 0])
        assert brute == pytest.approx(0.5, abs=1e-12)
        assert conjugate(HINGE, [0.5], grid) == pytest.approx(0.5, abs=1e-12)

    def test_squared_norm_at_zero_dual(self):
        grid = TypeSpace([[0.0, 0.0], [1.0, 0.5], [-1.0, 1.0]])
        assert conjugate(SquaredNorm(), [0.0, 0.0], grid) == pytest.approx(0.0, abs=1e-12)

    def test_abs_at_slope_one(self):
        grid = grid_1d(-1.0, 1.0, 0.25)
        brute = max(t - abs(t) for t in grid.points[:, 0])
        assert brute == 0.0
        assert conjugate(ABS, [1.0], grid) == pytest.approx(0.0, abs=1e-12)

    def test_breakpoints_make_1d_max_affine_exact(self):
        # maximizer of 0.3 t - max(0, t - 1) sits at the kink t = 1,
        # which this coarse grid misses
        grid = TypeSpace([[0.0], [0.7], [1.6], [2.0]])
        assert conjugate(HINGE, [0.3], grid) == pytest.approx(0.3, abs=1e-12)


class TestSelectionCheck:
    def test_abs_valid_selection_all_six_inequalities(self):
        ts = TypeSpace([[-1.0], [0.0], [1.0]])
        fam = LinearFamily([[-1.0], [1.0], [1.0]])
        # oracle: check G(t') >= G(t) + d(t' - t) for all 6 ordered pairs
        for i, t in enumerate(ts.points[:, 0]):
            for j, t2 in enumerate(ts.points[:, 0]):
                if i != j:
                    assert abs(t2) >= abs(t) + fam.vectors[i, 0] * (t2 - t) - 1e-12
        assert check_subgradient_selection(ABS, fam, ts).passed

    def test_exact_gradients_pass(self):
        ts = TypeSpace([[0.0, 0.0], [1.0, 0.0]])
        fam = LinearFamily([[0.0, 0.0], [2.0, 0.0]])
        assert check_subgradient_selection(SquaredNorm(), fam, ts).passed

    def test_decreasing_family_fails_with_first_pair(self):
        half_square = MaxAffine(
            slopes=[[-1.0], [0.0], [1.0]], intercepts=[-0.5, 0.0, -0.5]
        )
        ts = TypeSpace([[0.0], [1.0]])
        fam = LinearFamily([[1.0], [0.0]])
        report = check_subgradient_selection(half_square, fam, ts)
        assert not report.passed
        assert report.witnesses[0].indices == (0, 1)


class TestBregman:
    def test_squared_norm_is_squared_distance(self):
        d = bregman_divergence(SquaredNorm(), [1.0, 0.0], [0.0, 1.0])
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_zero_at_report_equal_truth(self):
        for g, t in [(SquaredNorm(), [0.3, -0.7]), (NegEntropy(), [0.4, 0.6])]:
            assert bregman_divergence(g, t, t) == pytest.approx(0.0, abs=1e-12)

    def test_neg_entropy_matches_kl(self):
        t = np.array([0.5, 0.5])
        r = np.array([0.25, 0.75])
        expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        # cross-check the displayed formula directly
        direct = (
            eval_convex(NegEntropy(), t)
            - eval_convex(NegEntropy(), r)
            - float((t - r) @ subgradient(NegEntropy(), r))
        )
        assert expect == pytest.approx(0.14384103622589045, abs=1e-12)
        assert direct == pytest.approx(expect, abs=1e-12)
        assert bregman_divergence(NegEntropy(), t, r) == pytest.approx(expect, abs=1e-12)


class TestInvariants:
    """Cross-cutting properties of the convex engine."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_selection_passes_check(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = random_max_affine(rng, dim)
        ts = random_typespace(rng, dim, max_points=12)
        fam = LinearFamily(np.vstack([subgradient(g, t) for t in ts.points]))
        assert check_subgradient_selection(g, fam, ts, tol=1e-9).passed

    @pytest.mark.parametrize(
        "g,t",
        [
            (SquaredNorm(), [0.4, -1.2]),
            (NegEntropy(), [0.3, 0.7]),
            (NegEntropy(), [0.2, 0.5, 0.3]),
        ],
    )
    def test_analytic_gradient_matches_finite_difference(self, g, t):
        if isinstance(g, NegEntropy):
            # perturbed points leave the simplex, so difference the raw
            # entropy formula rather than the domain-checked evaluator
            f = lambda x: float(np.sum(x * np.log(x)))
        else:
            f = lambda x: eval_convex(g, x)
        fd = central_diff_grad(f, np.asarray(t), h=1e-6)
        assert subgradient(g, t) == pytest.approx(fd, abs=1e-4)

    def test_bregman_nonnegative_on_grid(self):
        rng = np.random.default_rng(11)
        g = random_max_affine(rng, 2)
        pts = rng.uniform(-2, 2, size=(10, 2))
        for t in pts:
            for r in pts:
                assert bregman_divergence(g, t, r) >= -1e-9

    def test_fenchel_young_with_equality_at_subgradients(self):
        rng = np.random.default_rng(3)
        g = random_max_affine(rng, 2)
        ts = random_typespace(rng, 2, max_points=15)
        duals = [subgradient(g, t) for t in ts.points] + [
            rng.uniform(-2, 2, size=2) for _ in range(5)
        ]
        for t in ts.points:
            for d in duals:
                fy = eval_convex(g, t) + conjugate(g, d, ts) - float(t @ d)
                assert fy >= -1e-9
        for i, t in enumerate(ts.points):
            d = duals[i]  # the selected subgradient at t; maximizer is on grid
            fy = eval_convex(g, t) + conjugate(g, d, ts) - float(t @ d)
            assert abs(fy) <= 1e-6

    def test_flatness_when_subgradients_shared(self):
        # both types share the subgradient d = 1 of |t| on the positive ray
        ts = TypeSpace([[0.5], [2.0]])
        fam = LinearFamily([[1.0], [1.0]])
        assert check_subgradient_selection(ABS, fam, ts).passed
        g0 = eval_convex(ABS, [0.5])
        g1 = eval_convex(ABS, [2.0])
        assert abs(g0 - g1 - 1.0 * (0.5 - 2.0)) <= 1e-9
