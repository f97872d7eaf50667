import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import (
    LabeledSample,
    LinearFamily,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    check_cmon,
    check_local_truthful,
    check_revenue_equivalence,
    check_truthful,
    check_wmon,
    check_wmon_cells,
    make_direct_score,
    revenue_interval,
    rochet_payments,
    subgradient,
)
from elicit import monotone
from elicit.monotone import _cmon_weights, cmon_weights, longest_paths
from helpers import (
    brute_force_cmon,
    columnwise_longest_paths,
    full_rounds_longest_paths,
    loop_check_local_truthful,
    random_max_affine,
    random_typespace,
    recheck_cycle,
    report_text,
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

    def test_weights_subtract_the_diagonal_in_place(self):
        # wt[v, u] = t_v . d_u - t_u . d_u, bit for bit as from a second
        # array, and the public weights are its transpose; at m = 257 in
        # R^4 some products of vecs @ pts.T round otherwise than these
        rng = np.random.default_rng(850)
        for m, dim in [(1, 1), (7, 2), (120, 3), (257, 4)]:
            pts, vecs = rng.normal(size=(m, dim)), rng.normal(size=(m, dim))
            inner = pts @ vecs.T
            expected = inner - np.diag(inner)[None, :]
            assert _cmon_weights(pts, vecs).tobytes() == expected.tobytes()
            public = cmon_weights(TypeSpace(pts), LinearFamily(vecs))
            assert public.tobytes() == expected.T.tobytes()

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
        # of ||t||^2 plus N(0, noise^2) noise.  The random functionals
        # close a positive predecessor cycle in round 1, walked at once;
        # with noise, the first predecessor cycles weigh at most tol and
        # are passed over, and the walk after round 8 finds a heavier one
        rng = np.random.default_rng(400)
        pts = rng.uniform(-2, 2, size=(400, 3))
        if noise is None:
            vecs = rng.uniform(-2, 2, size=(400, 3))
        else:
            vecs = 2.0 * pts + rng.normal(scale=noise, size=(400, 3))
        ts, fam = TypeSpace(pts), LinearFamily(vecs)
        report = check_cmon(ts, fam, tol=tol)
        assert not report.passed
        assert report.info["rounds"] == (1 if noise is None else 8)
        (w,) = report.witnesses
        recheck_cycle(cmon_weights(ts, fam), w.indices, w.slack, tol)


def _assert_same_as_columnwise(weights, source, tol):
    res = longest_paths(weights, source=source, tol=tol)
    ref = columnwise_longest_paths(weights, source=source, tol=tol)
    assert res.dist.tobytes() == ref.dist.tobytes()
    assert res.pred.tobytes() == ref.pred.tobytes()
    assert (res.cycle, res.cycle_weight, res.rounds, res.edges_examined) == (
        ref.cycle, ref.cycle_weight, ref.rounds, ref.edges_examined
    )
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
            (np.zeros((3, 3)), -1, "source must be in [0, 3), got -1"),
            (np.zeros((3, 3)), 3, "source must be in [0, 3), got 3"),
            (np.zeros((3, 3)), 1.5, "source 1.5 is not an integer in the int64 range"),
            (np.zeros((3, 3)), True, "source True is not an integer in the int64 range"),
            (np.zeros((0, 0)), 0, "source must be in [0, 0), got 0"),
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

    @pytest.mark.parametrize(
        "source",
        [1.0, np.float64(1.0), np.int32(1), np.uint8(1)],
        ids=["float", "float64", "int32", "uint8"],
    )
    def test_whole_number_source_is_read_as_an_index(self, source):
        # the source is read as every index is (``core._index``)
        weights = np.array([[0.0, 1.0, -np.inf], [-1.0, 0.0, 0.5], [-5.0, -1.0, 0.0]])
        res, ref = longest_paths(weights, source=source), longest_paths(weights, source=1)
        assert res.dist.tolist() == ref.dist.tolist() == [-1.0, 0.0, 0.5]
        assert res.pred.tolist() == ref.pred.tolist()

    def test_diagonal_may_hold_any_value(self):
        weights = np.array([[np.nan, 1.0, -np.inf], [-1.0, np.inf, 0.5], [-5.0, -1.0, -np.inf]])
        for diagonal in (weights, np.where(np.eye(3, dtype=bool), 0.0, weights)):
            res = longest_paths(diagonal, source=0)
            assert res.dist.tolist() == [0.0, 1.0, 1.5] and res.pred.tolist() == [-1, 0, 1]
            assert res.cycle is None


def _path_graph(m, off_path):
    """Edges i -> i + 1 of weight 1, every other edge ``off_path``."""
    weights = np.full((m, m), off_path)
    weights[np.arange(m - 1), np.arange(1, m)] = 1.0
    return weights


class TestFrontierRounds:
    """Each round reads only the edges out of the nodes whose distance
    changed in the round before, gathering their columns when they are few
    enough; every result must still equal, bit for bit, that of the
    column-wise kernel, which reads every edge in every round."""

    TOLS = TestEarlyCycleDetection.TOLS

    @pytest.mark.parametrize("m", [12, 64, 100, 180, 300])
    def test_integer_weights_match_bitwise(self, m):
        # integer types with integer gradients repeat types and weights, so
        # many candidate predecessors tie exactly
        rng = np.random.default_rng(800 + m)
        pts = rng.integers(-3, 4, size=(m, 2)).astype(float)
        weights = _cmon_weights(pts, 2.0 * pts)
        raw = rng.integers(-6, 2, size=(m, m)).astype(float)
        for w in (weights, raw, raw - 4.0):
            for source in (None, 0, int(rng.integers(m)), m - 1):
                _assert_same_as_columnwise(w, source, float(rng.choice(self.TOLS)))

    @pytest.mark.parametrize("m", [30, 100, 250])
    def test_unreachable_nodes_match_bitwise(self, m):
        # a tenth of the nodes have no edge in, so a source never reaches
        # them; the rest carry the passing gradient family of ||t||^2
        rng = np.random.default_rng(810 + m)
        pts = rng.uniform(-1, 1, size=(m, 3))
        weights = cmon_weights(TypeSpace(pts), LinearFamily(2.0 * pts))
        cut = rng.choice(m, size=m // 10, replace=False)
        weights[:, cut] = -np.inf
        weights[rng.random((m, m)) < 0.2] = -np.inf
        for source in (None, int(rng.choice(np.setdiff1d(np.arange(m), cut))), int(cut[0])):
            res = _assert_same_as_columnwise(weights, source, 1e-9)
            if source is not None:
                unreached = np.setdiff1d(cut, [source])
                assert np.all(res.dist[unreached] == -np.inf)

    @pytest.mark.parametrize("m", [40, 64, 100, 200])
    def test_path_graph_takes_m_minus_1_rounds_of_one_node(self, m):
        # from node 0, round r reaches node r only: a one-node frontier in
        # each of the m - 1 rounds and in the final scan
        res = _assert_same_as_columnwise(_path_graph(m, -np.inf), 0, 1e-9)
        assert res.rounds == m - 1 and res.cycle is None
        assert res.dist.tolist() == list(range(m))
        # up to 64 nodes every round reads every column; beyond, one column
        assert res.edges_examined == m * m * (m if m <= 64 else 1)
        # from the virtual source round r reaches distance r along the
        # path; beyond 64 nodes the forest pass after round 1 carries each
        # node to its distance, so round 2, over m - 1 nodes, improves none
        for off_path in (-np.inf, -1e3):
            res = _assert_same_as_columnwise(_path_graph(m, off_path), None, 1e-9)
            assert res.dist.tolist() == list(range(m))
            if m <= 64:
                assert res.rounds == m - 1 and res.edges_examined == m**3
            else:
                assert res.rounds == 2 and res.edges_examined == 2 * m * m

    @pytest.mark.parametrize("m", [50, 64, 100, 200, 400])
    def test_frontiers_on_both_sides_of_the_gather_rule(self, m):
        rng = np.random.default_rng(820 + m)
        pts = rng.uniform(-1, 1, size=(m, 3))
        g = random_max_affine(rng, 3, max_pieces=12)
        families = {
            "gradient": 2.0 * pts,
            "near-truthful": 2.0 * pts + rng.normal(scale=0.05, size=(m, 3)),
            "max-affine": np.vstack([subgradient(g, t) for t in pts]),
        }
        for kind, vecs in families.items():
            weights = cmon_weights(TypeSpace(pts), LinearFamily(vecs))
            for source in (None, int(rng.integers(m))):
                res = _assert_same_as_columnwise(weights, source, 1e-9)
                full = res.rounds * m * m
                if m <= 64:
                    assert res.edges_examined in (full, full + m * m), kind
                elif kind == "gradient":
                    assert res.edges_examined < full, (kind, source)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_every_source_on_small_graphs(self, m):
        rng = np.random.default_rng(830 + m)
        for _ in range(10):
            weights = rng.integers(-3, 2, size=(m, m)).astype(float)
            weights[rng.random((m, m)) < 0.2] = -np.inf
            for source in [None] + list(range(m)):
                _assert_same_as_columnwise(weights, source, float(rng.choice(self.TOLS)))

    def test_edges_examined_counts_the_columns_read(self):
        # a refuting family's predecessors close a cycle in round 1, which
        # is walked at once; that round reads all m^2 edges
        rng = np.random.default_rng(400)
        pts = rng.uniform(-2, 2, size=(400, 3))
        ts = TypeSpace(pts)
        refuting = cmon_weights(ts, LinearFamily(rng.uniform(-2, 2, size=(400, 3))))
        res = longest_paths(refuting)
        assert res.cycle is not None and res.rounds == 1
        assert res.edges_examined == res.rounds * 400**2
        # a gradient family's frontier shrinks, and later rounds gather
        res = longest_paths(cmon_weights(ts, LinearFamily(2.0 * pts)))
        assert res.cycle is None
        assert res.edges_examined < res.rounds * 400**2
        again = longest_paths(cmon_weights(ts, LinearFamily(2.0 * pts)))
        assert (again.rounds, again.edges_examined) == (res.rounds, res.edges_examined)
        # the count is no field of check_cmon's info
        assert set(check_cmon(ts, LinearFamily(2.0 * pts)).info) == {"tol", "rounds"}


class TestLineFamilies:
    """Types along a line with an increasing d: the longest path to a
    type runs through every smaller one, so rounds that each add one edge
    would take m - 1 of them.  The forest pass carries each round's gains
    down the predecessor forest instead."""

    @pytest.mark.parametrize("m", [500, 1000])
    def test_check_cmon_passes_within_24_rounds(self, m):
        t = np.linspace(0, 1, m)
        for types in (t, np.random.default_rng(m).permutation(t)):
            ts = TypeSpace(types[:, None])
            for d in (2.0 * types, np.exp(types)):
                report = check_cmon(ts, LinearFamily(d[:, None]))
                assert report.passed and report.info["rounds"] <= 24, report.info

    def test_payments_match_full_rounds_and_a_lowered_d_fails(self):
        m = 300
        types = np.random.default_rng(m).permutation(np.linspace(0, 1, m))[:, None]
        ts, fam = TypeSpace(types), LinearFamily(2.0 * types)
        t0 = int(np.argmin(types))
        surplus = rochet_payments(ts, fam, t0=t0).surplus
        ref_dist, ref_cycle, _ = full_rounds_longest_paths(cmon_weights(ts, fam), t0, 1e-9)
        assert ref_cycle is None and surplus.tobytes() == ref_dist.tobytes()
        # the type at t = 0.5 reports d = 0.9 below its neighbours' 1.0
        lowered = 2.0 * types
        lowered[np.argmin(abs(types[:, 0] - 0.5))] -= 0.1
        report = check_cmon(ts, LinearFamily(lowered))
        (w,) = report.witnesses
        recheck_cycle(cmon_weights(ts, LinearFamily(lowered)), w.indices, w.slack, 1e-9)


def _assert_same_in_blocks(monkeypatch, weights, source, tol, cells):
    """``longest_paths`` with candidate blocks of ``cells`` floats against
    the whole-matrix references and the kernel at its own block size;
    returns the blocked result."""
    whole = longest_paths(weights, source=source, tol=tol)
    with monkeypatch.context() as patch:
        patch.setattr("elicit.core._BLOCK_CELLS", cells)
        res = _assert_same_as_columnwise(weights, source, tol)
    for field in ("dist", "pred"):
        assert getattr(res, field).tobytes() == getattr(whole, field).tobytes(), field
    assert (res.cycle, res.cycle_weight, res.rounds, res.edges_examined) == (
        whole.cycle, whole.cycle_weight, whole.rounds, whole.edges_examined
    )
    ref_dist, ref_cycle, _ = full_rounds_longest_paths(weights, source, tol)
    assert (res.cycle is None) == (ref_cycle is None)
    if res.cycle is None:
        assert res.dist.tobytes() == ref_dist.tobytes()
    return res


class TestRowBlocks:
    """Each round forms its candidates a block of rows at a time in a
    buffer of ``_BLOCK_CELLS`` floats.  A row sees the same candidates in
    any block, so every block size must give the whole-matrix result bit
    for bit, ``edges_examined`` included."""

    # one row per block; 7 cells, fewer than a gathered frontier of 8 or
    # more nodes, so again one row there and a few rows over smaller
    # frontiers; 61 and 999 cells, which split the rows unevenly (blocks
    # of 4 rows of 13 columns, of 9 rows of 100, and ragged blocks over
    # gathered frontiers); and the whole graph in one block
    CELLS = {"row": 1, "below-frontier": 7, "ragged": 61, "ragged-wide": 999, "whole": 1 << 40}
    TOLS = TestEarlyCycleDetection.TOLS

    @pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
    def test_integer_weights_with_exact_ties(self, monkeypatch, cells):
        rng = np.random.default_rng(850)
        for m in (13, 100, 190):
            pts = rng.integers(-3, 4, size=(m, 2)).astype(float)
            raw = rng.integers(-6, 2, size=(m, m)).astype(float)
            for w in (_cmon_weights(pts, 2.0 * pts), raw - 4.0, raw):
                for source in (None, 0, m - 1):
                    tol = float(rng.choice(self.TOLS))
                    _assert_same_in_blocks(monkeypatch, w, source, tol, cells)

    @pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
    def test_unreachable_columns(self, monkeypatch, cells):
        rng = np.random.default_rng(851)
        m = 150
        pts = rng.uniform(-1, 1, size=(m, 3))
        weights = cmon_weights(TypeSpace(pts), LinearFamily(2.0 * pts))
        cut = rng.choice(m, size=m // 10, replace=False)
        weights[:, cut] = -np.inf
        weights[rng.random((m, m)) < 0.2] = -np.inf
        for source in (None, int(np.setdiff1d(np.arange(m), cut)[0]), int(cut[0])):
            res = _assert_same_in_blocks(monkeypatch, weights, source, 1e-9, cells)
            if source is not None:
                assert np.all(res.dist[np.setdiff1d(cut, [source])] == -np.inf)

    @pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
    def test_gathered_frontiers_and_walk_cycles(self, monkeypatch, cells):
        rng = np.random.default_rng(852)
        gathered = walked = 0
        for m in (100, 260):
            pts = rng.uniform(-1, 1, size=(m, 3))
            for vecs in (2.0 * pts, rng.uniform(-2, 2, size=(m, 3))):
                weights = cmon_weights(TypeSpace(pts), LinearFamily(vecs))
                for source in (None, int(rng.integers(m))):
                    res = _assert_same_in_blocks(monkeypatch, weights, source, 1e-9, cells)
                    gathered += res.edges_examined < res.rounds * m * m
                    walked += res.cycle is not None and res.rounds < m - 1
        assert gathered > 0 and walked > 0

    @pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
    def test_every_source_and_final_scan_cycles(self, monkeypatch, cells):
        # up to 8 nodes no walk runs, so a cycle comes from the final scan
        rng = np.random.default_rng(853)
        scanned = 0
        for m in (1, 2, 3, 5, 7, 8):
            for _ in range(8):
                weights = rng.integers(-3, 2, size=(m, m)).astype(float)
                weights[rng.random((m, m)) < 0.2] = -np.inf
                for source in [None] + list(range(m)):
                    tol = float(rng.choice(self.TOLS))
                    res = _assert_same_in_blocks(monkeypatch, weights, source, tol, cells)
                    scanned += res.cycle is not None and res.rounds == m - 1
        assert scanned > 0

    def test_peak_memory_is_one_transposed_copy_and_a_block(self):
        # the kernel holds wt, one m x m array, and a fixed block of
        # candidates; one more m x m buffer would double the peak
        m = 600
        pts = np.random.default_rng(854).uniform(-1, 1, size=(m, 3))
        weights = cmon_weights(TypeSpace(pts), LinearFamily(2.0 * pts))
        for source in (None, 0):
            tracemalloc.start()
            try:
                res = longest_paths(weights, source=source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.cycle is None and res.rounds > 8
            assert peak <= 1.25 * (m * m * 8)


class TestOverflowingWeights:
    """Finite types and functionals whose weights d_i . (t_j - t_i) leave
    the float range (edge 0 -> 1 weighs +inf), or whose weights are finite
    but sum to more than the float range along a cycle; and a family whose
    bound 4 m max|t| max ||d||_1 is not finite while its weights are small,
    so the weights are scanned and pass."""

    TS = TypeSpace([[1e200], [-1e200], [0.0]])
    FAMILY = LinearFamily([[-1e200], [1e200], [0.0]])
    SUM_TS = TypeSpace([[0.0], [1.0]])
    SUM_FAMILY = LinearFamily([[1e308], [-1e308]])
    # d_0 . t_0 = d_1 . t_1 = 1 and d_0 . t_1 = d_1 . t_0 = 0: each edge weighs -1
    WIDE_TS = TypeSpace([[1e200, 0.0], [0.0, 1e-200]])
    WIDE_FAMILY = LinearFamily([[1e-200, 0.0], [0.0, 1e200]])

    @pytest.mark.parametrize(
        "call",
        [
            cmon_weights,
            check_wmon,
            check_cmon,
            rochet_payments,
            lambda ts, fam: revenue_interval(ts, fam, anchors={0: 0.0}, target=1),
            check_revenue_equivalence,
        ],
        ids=[
            "cmon_weights",
            "check_wmon",
            "check_cmon",
            "rochet_payments",
            "revenue_interval",
            "check_revenue_equivalence",
        ],
    )
    @pytest.mark.parametrize("overflow", ["edge", "cycle"])
    def test_rejected_without_a_warning(self, call, overflow):
        ts, fam = (self.TS, self.FAMILY) if overflow == "edge" else (self.SUM_TS, self.SUM_FAMILY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow the float range"):
                call(ts, fam)

    def test_an_infinite_bound_scans_finite_weights_and_passes(self, monkeypatch):
        scans = []
        scan = monotone._require_summable
        monkeypatch.setattr(monotone, "_require_summable", lambda *a: scans.append(scan(*a)))
        ts, fam = self.WIDE_TS, self.WIDE_FAMILY
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cmon_weights(ts, fam).tolist() == [[0.0, -1.0], [-1.0, 0.0]]
            assert check_wmon(ts, fam).passed and check_cmon(ts, fam).passed
            assert check_wmon_cells(fam.vectors, LabeledSample(ts.points, [0, 1])).passed
            for t0, surplus in [(0, [0.0, -1.0]), (1, [-1.0, 0.0])]:
                result = rochet_payments(ts, fam, t0=t0)
                assert result.surplus.tolist() == surplus
                assert result.payments.tolist() == [1.0 - v for v in surplus]
                # each surplus interval is [-1, 1]: the edges weigh -1 both ways
                report = check_revenue_equivalence(ts, fam, t0=t0)
                assert [(w.indices, w.slack) for w in report.witnesses] == [((1 - t0,), 2.0)]
            interval = revenue_interval(ts, fam, anchors={1: 2.0}, target=0)
            assert (interval.lower, interval.upper) == (1.0, 3.0)
        assert len(scans) == 9  # one scan a call, each passing
        # a bound that is finite scans nothing
        check_cmon(TypeSpace([[1e150, 0.0], [0.0, 1.0]]), LinearFamily([[1e150, 0.0], [0.0, 1.0]]))
        assert len(scans) == 9

    def test_overflowing_payoffs_raise_no_warning(self):
        score = ScoreTable(reports=[0, 1, 2], linear=self.FAMILY.vectors, constant=[0.0] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(score.payoff_matrix(self.TS)).any()
            with pytest.raises(ValueError, match="truthful reports must score finite values"):
                check_truthful(score, self.TS)
            with pytest.raises(ValueError, match="truthful reports must score finite values"):
                check_local_truthful(score, self.TS, [0, 1, 2], radius=1.0)


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

    @pytest.mark.parametrize("entry", [1e308, np.inf, np.nan])
    def test_report_beyond_the_integer_range_is_named(self, entry):
        score = make_direct_score(SquaredNorm(), TWO)
        message = re.escape(f"report_of entry {entry!r} is not an integer in the int64 range")
        with pytest.raises(ValueError, match=message):
            check_local_truthful(score, TWO, report_of=[0, entry], radius=2.0)

    @pytest.mark.parametrize(
        "report_of", [np.array([0.0, np.nan]), [0, np.float64("nan")]], ids=["array", "list"]
    )
    def test_numpy_nan_is_named_without_a_cast_warning(self, report_of):
        # numpy warns when it casts a numpy nan to int; the suite makes that an error
        score = make_direct_score(SquaredNorm(), TWO)
        entry = report_of[1]
        message = re.escape(f"report_of entry {entry!r} is not an integer in the int64 range")
        with pytest.raises(ValueError, match=message):
            check_local_truthful(score, TWO, report_of, radius=2.0)

    @pytest.mark.parametrize("entry", [1.5, "1"])
    def test_report_that_is_no_whole_number_is_named(self, entry):
        # np.asarray(..., dtype=int) would read 1.5 as report 1
        score = make_direct_score(SquaredNorm(), TWO)
        message = re.escape(f"report_of entry {entry!r} is not an integer in the int64 range")
        with pytest.raises(ValueError, match=message):
            check_local_truthful(score, TWO, report_of=[0, entry], radius=2.0)
        report = check_local_truthful(score, TWO, report_of=np.array([0.0, 1.0]), radius=2.0)
        assert report.passed

    @pytest.mark.parametrize("cells", [1, 50, 1 << 16], ids=["row", "rows", "whole"])
    @pytest.mark.parametrize("dim", [1, 3, 9])
    def test_row_blocks_match_the_whole_array(self, monkeypatch, cells, dim):
        # the gaps are formed a block of rows at a time: one row, a few rows
        # or all of them per block must give the pairs of the m x m x dim
        # array, types at a distance of exactly the radius included, and at
        # 1e200 the distances whose sum of squares overflows; the squares
        # are summed one coordinate at a time in every dimension, and on the
        # integer lattice every such sum is exact, so np.linalg.norm, which
        # sums eight ways at once from dim 8 on, gives the same distances
        monkeypatch.setattr("elicit.core._BLOCK_CELLS", cells)
        rng = np.random.default_rng(840 + dim)
        lattice = np.unique(rng.integers(-4, 5, size=(60, dim)), axis=0).astype(float)
        for scale in (1.0, 1e200):
            pts = lattice * scale
            with np.errstate(over="ignore"):
                diff = pts[:, None, :] - pts[None, :, :]
                gaps = np.linalg.norm(diff, axis=-1)
                wide = gaps == np.inf
                gaps[wide] = np.hypot.reduce(diff[wide], axis=-1)
            radius = float(np.sort(gaps[np.triu_indices(len(pts), 1)])[len(pts)])
            expected = np.triu(gaps <= radius, 1)
            assert (scale == 1e200) == bool(wide.any())
            ts = TypeSpace(pts)
            m = len(ts)
            # distinct constants and no linear part: every pair misreports,
            # so the witnesses are exactly the pairs within the radius
            apart = ScoreTable(list(range(m)), np.zeros((m, dim)), rng.permutation(m))
            report = check_local_truthful(apart, ts, range(m), radius)
            assert [w.indices for w in report.witnesses] == list(map(tuple, np.argwhere(expected)))
            assert report.info["checked_pairs"] == int(expected.sum()) > 0
            if scale == 1.0:
                score = ScoreTable(
                    reports=list(range(m)),
                    linear=rng.uniform(-1, 1, size=(m, dim)),
                    constant=rng.uniform(-1, 1, size=m),
                )
                report = check_local_truthful(score, ts, range(m), radius)
                reference = loop_check_local_truthful(score, ts, range(m), radius, 1e-9)
                assert report.info["checked_pairs"] == int(expected.sum())
                assert report_text(report) == report_text(reference)

    def test_distances_sum_the_squares_in_coordinate_order(self):
        # off the integer lattice the order of the sum shows: at dim 12
        # np.linalg.norm sums the squares eight ways at once and rounds
        # this pair's distance one ulp above the coordinate-order sum, which
        # is the radius here, so only that sum keeps the pair within it
        rng = np.random.default_rng(1200)
        pts = rng.uniform(-1, 1, size=(30, 12))
        m = len(pts)
        gaps = np.zeros((m, m))
        for i, j in itertools.combinations(range(m), 2):
            gaps[i, j] = math.sqrt(sum((a - b) * (a - b) for a, b in zip(pts[i], pts[j])))
        norms = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        i, j = np.argwhere(np.triu(norms == np.nextafter(gaps, np.inf), 1))[0].tolist()
        radius = float(gaps[i, j])
        expected = np.triu(gaps <= radius, 1)
        assert expected[i, j] and not norms[i, j] <= radius
        ts = TypeSpace(pts)
        apart = ScoreTable(list(range(m)), np.zeros((m, 12)), rng.permutation(m))
        report = check_local_truthful(apart, ts, range(m), radius)
        assert [w.indices for w in report.witnesses] == list(map(tuple, np.argwhere(expected)))
        score = ScoreTable(list(range(m)), rng.uniform(-1, 1, (m, 12)), rng.uniform(-1, 1, m))
        report = check_local_truthful(score, ts, range(m), radius)
        reference = loop_check_local_truthful(score, ts, range(m), radius, 1e-9)
        assert report.info["checked_pairs"] == int(expected.sum())
        assert report_text(report) == report_text(reference)

    def test_radius_beyond_diameter_matches_global(self):
        ts = TypeSpace(np.linspace(-1, 1, 9).reshape(-1, 1))
        score = make_direct_score(SquaredNorm(), ts)
        report = check_local_truthful(score, ts, report_of=range(9), radius=10.0)
        assert report.passed == report.info["global_passed"]
        assert report.info["checked_pairs"] == 9 * 8 // 2
