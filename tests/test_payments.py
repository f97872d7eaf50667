import numpy as np
import pytest

from elicit import (
    InconsistentAnchorsError,
    LinearFamily,
    NotImplementableError,
    NotMonotoneError,
    StepAllocation,
    TypeSpace,
    check_cmon,
    check_revenue_equivalence,
    check_truthful,
    myerson_payment,
    revenue_interval,
    rochet_payments,
)
from elicit import payments
from elicit.monotone import longest_paths

# one-dimensional worked instance: types 0, 1, 2 with allocations 0, 1, 2
LINE = TypeSpace([[0.0], [1.0], [2.0]])
INCREASING = LinearFamily([[0.0], [1.0], [2.0]])


class TestRochet:
    def test_increasing_family_surplus_hits_lower_envelope(self):
        result = rochet_payments(LINE, INCREASING, t0=0)
        assert result.surplus == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert result.payments == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)
        assert result.surplus[result.base_type] == 0.0

    def test_constant_family_gives_linear_surplus(self):
        ts = TypeSpace([[0.0], [0.5], [2.0]])
        fam = LinearFamily([[1.5], [1.5], [1.5]])
        result = rochet_payments(ts, fam, t0=0)
        # single-edge paths are optimal and path independent: c (t - t0)
        assert result.surplus == pytest.approx([0.0, 0.75, 3.0], abs=1e-12)

    def test_not_implementable_carries_cycle(self):
        fam = LinearFamily([[1.0], [0.0]])
        ts = TypeSpace([[0.0], [1.0]])
        with pytest.raises(NotImplementableError) as err:
            rochet_payments(ts, fam, t0=0)
        assert err.value.weight == pytest.approx(1.0, abs=1e-12)
        assert sorted(err.value.cycle) == [0, 1]

    def test_induced_score_is_truthful(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            pts = np.sort(rng.uniform(0, 3, size=m))
            ts = TypeSpace(pts.reshape(-1, 1))
            fam = LinearFamily(np.sort(rng.uniform(0, 2, size=m)).reshape(-1, 1))
            result = rochet_payments(ts, fam, t0=0)
            report = check_truthful(result.induced_score(), ts)
            assert report.passed
            assert report.info["min_slack"] >= -1e-9


class TestMyerson:
    STEP = StepAllocation(breakpoints=[0.0, 1.0], values=[0.0, 1.0])

    def test_critical_value_integral(self):
        # 2 * f(2) - integral_0^2 f = 2 - 1
        assert myerson_payment(self.STEP, 2.0) == pytest.approx(1.0, abs=0)

    def test_zero_allocation_zero_payment(self):
        assert myerson_payment(self.STEP, 0.5) == pytest.approx(0.0, abs=0)

    def test_constant_allocation_charges_nothing(self):
        flat = StepAllocation(breakpoints=[0.0], values=[1.0])
        for t in [0.0, 0.3, 1.7, 10.0]:
            assert myerson_payment(flat, t) == pytest.approx(0.0, abs=0)

    def test_p0_shifts_payment(self):
        assert myerson_payment(self.STEP, 2.0, p0=0.25) == pytest.approx(1.25, abs=0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_type_rejected(self, t):
        with pytest.raises(ValueError, match=f"t must be nonnegative and finite, got {t}"):
            myerson_payment(self.STEP, t)

    @pytest.mark.parametrize("p0", [np.nan, np.inf, -np.inf])
    def test_non_finite_p0_rejected(self, p0):
        with pytest.raises(ValueError, match=f"p0 must be finite, got {p0}"):
            myerson_payment(self.STEP, 2.0, p0=p0)

    def test_decreasing_allocation_rejected(self):
        alloc = StepAllocation(breakpoints=[0.0, 1.0], values=[1.0, 0.0])
        with pytest.raises(NotMonotoneError) as err:
            myerson_payment(alloc, 2.0)
        assert err.value.index == 0

    def test_agrees_with_rochet_on_breakpoint_grid(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            bps = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 4.0, size=k - 1))])
            vals = np.sort(rng.uniform(0.0, 3.0, size=k))
            alloc = StepAllocation(breakpoints=bps, values=vals)
            grid = np.unique(np.concatenate([bps, rng.uniform(0, 5, size=6)]))
            grid = np.sort(np.concatenate([[0.0], grid[grid > 0]]))
            ts = TypeSpace(grid.reshape(-1, 1))
            fam = LinearFamily([[alloc.value_at(t)] for t in grid])
            result = rochet_payments(ts, fam, t0=0)
            for i, t in enumerate(grid):
                assert myerson_payment(alloc, t) == pytest.approx(
                    result.payments[i], abs=1e-9
                )


class TestRevenueInterval:
    def test_anchored_at_zero(self):
        got = revenue_interval(LINE, INCREASING, anchors={0: 0.0}, target=1)
        assert (got.lower, got.upper) == pytest.approx((0.0, 1.0), abs=1e-12)
        got = revenue_interval(LINE, INCREASING, anchors={0: 0.0}, target=2)
        assert (got.lower, got.upper) == pytest.approx((1.0, 3.0), abs=1e-12)

    def test_second_anchor_narrows_interval(self):
        got = revenue_interval(LINE, INCREASING, anchors={0: 0.0, 1: 0.5}, target=2)
        assert (got.lower, got.upper) == pytest.approx((1.5, 2.5), abs=1e-12)

    def test_constant_family_degenerate(self):
        ts = TypeSpace([[0.0], [1.0], [3.0]])
        c = 0.7
        fam = LinearFamily([[c]] * 3)
        got = revenue_interval(ts, fam, anchors={0: 2.0}, target=2)
        expect = 2.0 + c * 3.0
        assert got.lower == pytest.approx(expect, abs=1e-12)
        assert got.upper == pytest.approx(expect, abs=1e-12)

    def test_target_in_anchors_is_degenerate(self):
        got = revenue_interval(LINE, INCREASING, anchors={0: 0.0, 1: 0.5}, target=1)
        assert got.lower == got.upper == 0.5

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_anchor_rejected(self, value):
        # a nan anchor used to give lower = upper = nan
        with pytest.raises(ValueError, match=f"anchor 0 must be finite, got {value}"):
            revenue_interval(LINE, INCREASING, anchors={0: value}, target=2)
        with pytest.raises(ValueError, match="anchor 2 must be finite"):
            revenue_interval(LINE, INCREASING, anchors={0: 0.0, 2: value}, target=1)

    @pytest.mark.parametrize(
        "anchors,target,message",
        [
            # 1.7 used to be read as type 1, giving [1.5, 2.5]
            ({0: 0.0, 1.7: 0.5}, 2, "anchor index 1.7 is not an integer"),
            ({0: 0.0, np.nan: 0.5}, 2, "anchor index nan is not an integer"),
            ({0: 0.0}, 1.5, "target 1.5 is not an integer"),
            ({0: 0.0}, np.inf, "target inf is not an integer"),
        ],
    )
    def test_fractional_index_rejected(self, anchors, target, message):
        with pytest.raises(ValueError, match=message):
            revenue_interval(LINE, INCREASING, anchors=anchors, target=target)

    def test_whole_float_index_is_the_index(self):
        got = revenue_interval(LINE, INCREASING, anchors={0.0: 0.0, 1.0: 0.5}, target=2.0)
        assert (got.lower, got.upper, got.target) == (1.5, 2.5, 2)

    def test_inconsistent_anchors_rejected(self):
        # anchor at type 1 below the path bound forced from type 2
        with pytest.raises(InconsistentAnchorsError):
            revenue_interval(LINE, INCREASING, anchors={0: 0.0, 2: 5.0}, target=1)

    def test_inconsistency_names_the_root_of_the_forcing_path(self):
        # 2=5 forces 1 up to 5 - 2 = 3, and 0 along 2 -> 1 -> 0 up to
        # 3 - 1 = 2: anchor 0 is the first inconsistent one in the given
        # order, and its chain passes anchor 1 to the root, anchor 2
        anchors = {0: 0.0, 1: 0.4, 2: 5.0}
        with pytest.raises(
            InconsistentAnchorsError,
            match=r"^anchor 0=0 below path bound 2 forced by anchor 2=5$",
        ):
            revenue_interval(LINE, INCREASING, anchors=anchors, target=1)

    def test_a_cycle_the_search_lets_through_can_make_an_anchor_force_itself(self):
        # a rotation field d_i = (-y_i, x_i), whose 5-cycle weighs 1.38 >
        # tol: the search from anchor 0 reads off only cycles of weight at
        # most tol, and their laps raise anchor 0 above its own value
        pts = np.array([[0.6, 0.3], [-0.0, 0.3], [-0.5, -0.4], [0.0, -0.9], [0.2, -0.6]])
        ts, fam = TypeSpace(pts), LinearFamily(np.column_stack((-pts[:, 1], pts[:, 0])))
        assert not check_cmon(ts, fam, tol=1.0).passed
        with pytest.raises(
            InconsistentAnchorsError,
            match=r"^anchor 0=0 below path bound 1.32 forced by anchor 0=0$",
        ):
            revenue_interval(ts, fam, anchors={0: 0.0}, target=1, tol=1.0)

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_two_kernel_runs_for_any_number_of_anchors(self, monkeypatch, k):
        # anchors on G(t) = |t|^2 + 1, whose gradients are the family
        rng = np.random.default_rng(30 + k)
        pts = rng.uniform(-1, 1, size=(12, 2))
        ts, fam = TypeSpace(pts), LinearFamily(2.0 * pts)
        anchors = {s: float(pts[s] @ pts[s]) + 1.0 for s in range(k)}
        runs = []

        def counted(*args, **kwargs):
            runs.append(kwargs["source"])
            return longest_paths(*args, **kwargs)

        monkeypatch.setattr(payments, "longest_paths", counted)
        got = revenue_interval(ts, fam, anchors=anchors, target=11)
        assert got.lower <= got.upper
        assert runs == [anchors, 11]
        runs.clear()
        revenue_interval(ts, fam, anchors=anchors, target=k - 1)
        assert runs == [anchors]

    def test_interval_membership_reanchoring(self):
        for target, (lo, hi) in [(1, (0.0, 1.0)), (2, (1.0, 3.0))]:
            for c in np.linspace(lo, hi, 7)[1:-1]:
                got = revenue_interval(
                    LINE, INCREASING, anchors={0: 0.0, target: float(c)}, target=target
                )
                assert got.lower == got.upper == pytest.approx(float(c), abs=0)
                # every remaining type still admits a consistent value
                for other in range(3):
                    if other == target or other == 0:
                        continue
                    sub = revenue_interval(
                        LINE,
                        INCREASING,
                        anchors={0: 0.0, target: float(c)},
                        target=other,
                    )
                    assert sub.lower <= sub.upper + 1e-9

    def test_envelope_identity_with_rochet(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            ts = TypeSpace(rng.uniform(-2, 2, size=(m, 2)))
            fam = LinearFamily(
                np.vstack([2.0 * t for t in ts.points])  # gradients of <t, t>
            )
            result = rochet_payments(ts, fam, t0=0)
            for target in range(m):
                got = revenue_interval(ts, fam, anchors={0: 0.0}, target=target)
                assert got.lower == pytest.approx(result.surplus[target], abs=1e-9)


class TestRevenueEquivalence:
    def test_increasing_family_fails_with_width_one(self):
        report = check_revenue_equivalence(LINE, INCREASING)
        assert not report.passed
        by_target = {w.indices[0]: w for w in report.witnesses}
        assert by_target[1].slack == pytest.approx(1.0, abs=1e-12)
        assert by_target[2].slack == pytest.approx(2.0, abs=1e-12)

    def test_constant_family_passes(self):
        ts = TypeSpace([[0.0], [1.0], [2.5]])
        fam = LinearFamily([[0.3]] * 3)
        assert check_revenue_equivalence(ts, fam).passed

    def test_two_point_matching_allocations(self):
        ts = TypeSpace([[0.0], [1.0]])
        fam = LinearFamily([[1.0], [1.0]])
        assert check_revenue_equivalence(ts, fam).passed

    def test_not_implementable_propagates(self):
        ts = TypeSpace([[0.0], [1.0]])
        fam = LinearFamily([[1.0], [0.0]])
        with pytest.raises(NotImplementableError):
            check_revenue_equivalence(ts, fam)
