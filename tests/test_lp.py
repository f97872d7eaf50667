import numpy as np
import pytest

from elicit import ElicitError
from elicit.lp import feasible_point


class TestFeasiblePoint:
    def test_trivial_box(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([2.0, 1.0])  # -1 <= x <= 2
        res = feasible_point(A, b)
        assert res.feasible
        assert -1.0 - 1e-9 <= res.x[0] <= 2.0 + 1e-9

    def test_negative_rhs_needs_pivoting(self):
        A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        b = np.array([-3.0, -2.0, 10.0])  # x >= 3, y >= 2, x + y <= 10
        res = feasible_point(A, b)
        assert res.feasible
        assert np.all(A @ res.x <= b + 1e-9)

    def test_a_pivot_limit_gives_no_verdict(self):
        # x <= 1 needs one pivot; stopped before it, the loop used to answer
        # infeasible with farkas [-1.], which is no certificate (y >= 0 fails)
        with pytest.raises(ElicitError, match="no verdict within max_iter=0 pivots"):
            feasible_point([[1.0]], [1.0], max_iter=0)
        res = feasible_point([[1.0]], [1.0], max_iter=1)
        assert res.feasible and res.iterations == 1

    def test_empty_system(self):
        res = feasible_point(np.zeros((0, 3)), np.zeros(0))
        assert res.feasible
        assert res.x == pytest.approx([0.0, 0.0, 0.0], abs=0)

    def test_infeasible_interval(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([1.0, -2.0])  # x <= 1 and x >= 2
        res = feasible_point(A, b)
        assert not res.feasible
        y = res.farkas
        # Farkas: y >= 0, y^T A = 0, y^T b < 0
        assert np.all(y >= -1e-12)
        assert y @ A == pytest.approx([0.0], abs=1e-9)
        assert float(y @ b) < 0

    def test_equality_boundary_is_feasible(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([1.0, -1.0])  # x == 1
        res = feasible_point(A, b)
        assert res.feasible
        assert res.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_random_systems_match_reference_verdict(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 12))
            A = rng.uniform(-2, 2, size=(m, n))
            x0 = rng.uniform(-1, 1, size=n)
            slack = rng.uniform(-0.5, 0.5, size=m)
            b = A @ x0 + slack
            res = feasible_point(A, b)
            if np.all(slack >= 0):
                # b was built feasible around x0
                assert res.feasible
            if res.feasible:
                assert np.all(A @ res.x <= b + 1e-7)
            else:
                y = res.farkas
                assert np.all(y >= -1e-12)
                assert np.max(np.abs(y @ A)) <= 1e-7 * max(1.0, np.abs(y).sum())
                assert float(y @ b) < 0
