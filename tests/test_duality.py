import tracemalloc

import numpy as np
import pytest

from elicit import (
    DomainError,
    MaxAffine,
    NegEntropy,
    SquaredNorm,
    TypeSpace,
    biconjugate,
    check_duality_identities,
    conjugate,
    elicitation_game_equilibria,
    eval_convex,
    subgradient,
)
from helpers import tangent_max_affine

# half the squared norm in 1-D, as tangents at {-1, 0, 1}
HALF_SQ = tangent_max_affine(
    curve_grad=lambda t: t, curve_val=lambda t: 0.5 * float(t @ t), anchors=[-1.0, 0.0, 1.0]
)
GRID3 = TypeSpace([[-1.0], [0.0], [1.0]])
ABS = MaxAffine(slopes=[[1.0], [-1.0]], intercepts=[0.0, 0.0])


def lattice_2d(lo=-1.0, hi=1.0, n=21):
    axis = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(axis, axis)
    return TypeSpace(np.column_stack([xx.ravel(), yy.ravel()]))


class TestDualScores:
    """The dual-report score <t, d> - G*(d) and the dual-type score
    <t, d> - G(t), each formed from ``conjugate`` and ``eval_convex``."""

    def test_dual_report_at_subgradient_equals_primal_value(self):
        # Fenchel-Young with equality: G*(dG(t)) = <t, dG(t)> - G(t)
        for t in GRID3.points:
            d = subgradient(HALF_SQ, t)
            got = t @ d - conjugate(HALF_SQ, d, GRID3)
            assert got == pytest.approx(eval_convex(HALF_SQ, t), abs=1e-9)

    def test_zero_dual_gives_minus_min(self):
        got = -conjugate(HALF_SQ, [0.0], GRID3)  # <t, 0> - G*(0) at any t
        min_g = min(eval_convex(HALF_SQ, t) for t in GRID3.points)
        assert got == pytest.approx(-min_g, abs=1e-12)

    def test_maximizing_dual_type_score_is_the_conjugate(self):
        # duals aligned with the tangent slopes keep the maximizer on the
        # grid (elsewhere the breakpoint scan makes conjugate() larger)
        for d in ([-1.0], [0.0], [1.0]):
            best = (GRID3.points @ d - eval_convex(HALF_SQ, GRID3.points)).max()
            assert best == pytest.approx(
                conjugate(HALF_SQ, np.asarray(d), GRID3), abs=1e-12
            )


class TestIdentities:
    def test_squared_norm_lattice_all_pass(self):
        grid = lattice_2d(n=9)
        duals = 2.0 * grid.points
        report = check_duality_identities(SquaredNorm(), grid, duals)
        assert report.passed
        assert report.info == {"tol": 1e-9, "max_fenchel_young_violation": 0.0}

    def test_squared_norm_lattice_at_scale_1e4_passes(self):
        # G is about 2e8 here, so one rounding is about 3e-8, far above tol:
        # a rearrangement of G(t), G*(d) and <t, d> that is 0 in exact
        # arithmetic would report that rounding as a violation
        axis = 1e4 * np.linspace(-1.0, 1.0, 7)
        grid = TypeSpace(np.column_stack([a.ravel() for a in np.meshgrid(axis, axis)]))
        report = check_duality_identities(SquaredNorm(), grid, 2.0 * grid.points)
        assert report.passed and len(report.witnesses) == 0
        assert report.info["max_fenchel_young_violation"] <= 1e-9

    def test_a_conjugate_one_too_low_fails(self, monkeypatch):
        # the gap at d = 2t is 0; with G* lowered by 1 it is -1 there
        grid = lattice_2d(n=3)
        monkeypatch.setattr(
            "elicit.duality.conjugate", lambda g, d, grid: conjugate(g, d, grid) - 1.0
        )
        report = check_duality_identities(SquaredNorm(), grid, 2.0 * grid.points)
        assert not report.passed
        assert {w.kind for w in report.witnesses} == {"fenchel-young"}
        assert [tuple(w.indices) for w in report.witnesses] == [(i, i) for i in range(len(grid))]
        assert all(w.slack == pytest.approx(1.0, abs=1e-12) for w in report.witnesses)
        assert report.info["max_fenchel_young_violation"] == pytest.approx(1.0, abs=1e-12)

    def test_peak_memory_is_about_two_grid_by_duals_arrays(self):
        # the gaps, the inner products subtracted from them, and masks
        rng = np.random.default_rng(600)
        grid = TypeSpace(rng.uniform(-1.0, 1.0, size=(600, 2)))
        duals = 2.0 * grid.points
        check_duality_identities(SquaredNorm(), grid, duals)  # warm caches
        tracemalloc.start()
        try:
            report = check_duality_identities(SquaredNorm(), grid, duals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2.5 * 600 * 600 * 8

    def test_fenchel_young_slack_equals_divergence(self):
        grid = lattice_2d(n=5)
        t = np.array([0.5, -0.5])
        d = np.array([1.0, 1.0])  # not the subgradient 2t
        fy = (
            eval_convex(SquaredNorm(), t)
            + float(d @ d) / 4.0
            - float(t @ d)
        )
        # slack is ||t - d/2||^2: (0.5-0.5)^2 + (-0.5-0.5)^2 = 1
        assert fy == pytest.approx(1.0, abs=1e-12)

    def test_max_affine_identities_on_grid(self):
        grid = GRID3
        duals = np.array([[-1.0], [0.0], [1.0]])
        report = check_duality_identities(HALF_SQ, grid, duals)
        assert report.passed


    @pytest.mark.parametrize(
        "g,grid,duals",
        [
            (HALF_SQ, GRID3, []),
            (SquaredNorm(), lattice_2d(n=3), []),
            (SquaredNorm(), lattice_2d(n=3), np.zeros((0, 2))),
        ],
    )
    def test_no_duals_is_a_vacuous_pass(self, g, grid, duals):
        # no (t, d) pair to check; the game on the same grids has no equilibrium
        report = check_duality_identities(g, grid, duals)
        assert report.passed and len(report.witnesses) == 0
        assert report.info == {"tol": 1e-9, "max_fenchel_young_violation": 0.0}
        assert elicitation_game_equilibria(g, grid, duals, grid) == []

    def test_no_duals_still_checks_the_grid(self):
        off_simplex = TypeSpace([[2.0, 0.0], [0.5, 0.5]])
        with pytest.raises(DomainError, match=r"point \[2.0, 0.0\] is not on the probability"):
            check_duality_identities(NegEntropy(), off_simplex, [])
        # the game on the same grids, with or without duals
        for duals in ([], [[0.0, 0.0]]):
            with pytest.raises(DomainError, match=r"point \[2.0, 0.0\] is not on the probability"):
                elicitation_game_equilibria(NegEntropy(), off_simplex, duals, off_simplex)

class TestBiconjugate:
    def test_squared_norm_fixed_point(self):
        grid = lattice_2d(n=11)
        duals = 2.0 * grid.points
        for t in grid.points[::7]:
            assert biconjugate(SquaredNorm(), t, grid, duals) == pytest.approx(
                eval_convex(SquaredNorm(), t), abs=1e-6
            )

    def test_max_affine_fixed_point_when_slopes_in_dual_grid(self):
        grid = TypeSpace(np.linspace(-1, 1, 21).reshape(-1, 1))
        duals = np.array([[-1.0], [1.0]])  # the slopes of |t|
        for t in grid.points:
            assert biconjugate(ABS, t, grid, duals) == pytest.approx(
                eval_convex(ABS, t), abs=1e-9
            )


class TestGame:
    def test_half_square_matched_grids(self):
        duals = np.array([[-1.0], [0.0], [1.0]])
        eqs = elicitation_game_equilibria(HALF_SQ, GRID3, duals, GRID3)
        pairs = {(e.d_index, e.t_index) for e in eqs}
        assert pairs == {(0, 0), (1, 1), (2, 2)}
        for e in eqs:
            assert e.value_primal == pytest.approx(
                eval_convex(HALF_SQ, e.t), abs=1e-9
            )

    def test_abs_at_zero_pairs_with_every_subgradient(self):
        grid = TypeSpace([[0.0]])
        duals = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
        # conjugate needs a real hull around 0 to price the duals
        conj_grid = TypeSpace(np.linspace(-1, 1, 41).reshape(-1, 1))
        eqs = elicitation_game_equilibria(ABS, grid, duals, conj_grid)
        assert {(e.d_index, e.t_index) for e in eqs} == {(j, 0) for j in range(5)}

    def test_empty_dual_grid(self):
        assert elicitation_game_equilibria(ABS, GRID3, np.zeros((0, 1)), GRID3) == []

    def test_the_gaps_are_refused_before_they_are_formed(self, monkeypatch):
        # the conjugate's 2 x 3 products fit a limit of 99 cells; the
        # 2 x 50 gaps at the types do not
        monkeypatch.setattr("elicit.core.MAX_MATRIX_CELLS", 99)
        types = TypeSpace(np.linspace(-1.0, 1.0, 50).reshape(-1, 1))
        message = "the Fenchel-Young gaps of 2 duals at 50 types would take 2 x 50 floats"
        with pytest.raises(ValueError, match="^" + message):
            elicitation_game_equilibria(HALF_SQ, types, np.array([[0.0], [1.0]]), GRID3)

    def test_equilibrium_symmetry_under_role_swap(self):
        # conjugate of the half-square tangents is itself a max-affine
        # family in d; swapping roles must transpose the pair set
        duals = np.array([[-1.0], [0.0], [1.0]])
        star = tangent_max_affine(
            curve_grad=lambda d: d,
            curve_val=lambda d: 0.5 * float(d @ d),
            anchors=[-1.0, 0.0, 1.0],
        )
        fwd = elicitation_game_equilibria(HALF_SQ, GRID3, duals, GRID3)
        bwd = elicitation_game_equilibria(star, TypeSpace(duals), GRID3.points, TypeSpace(duals))
        assert {(e.d_index, e.t_index) for e in fwd} == {
            (e.t_index, e.d_index) for e in bwd
        }
