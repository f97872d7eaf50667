"""``check_cmon``, ``rochet_payments``, ``revenue_interval`` and
``check_revenue_equivalence`` form the cmon weights once per call, by
one product in the layout of the Bellman-Ford kernel
(``monotone._cmon_graph``), whose transpose ``cmon_weights`` returns:
the reversed graph is the same array transposed back in place, and the
post-check of ``rochet_payments`` forms its payoffs in it.  Each must
give bit for bit what searches on separately formed weights give
(``helpers.separate_*``), at every block size, and the public
``longest_paths`` must leave its argument as it was.  The pair slacks of
``check_wmon`` are the weights of 2-cycles of the same graph.  A search
from start values, the first of the two of ``revenue_interval``, must
match the column-wise kernel bit for bit, and the interval the
per-anchor formulas of single-source searches."""

import functools
import json
from functools import partial

import numpy as np
import pytest

from elicit import (
    InconsistentAnchorsError,
    LinearFamily,
    MaxAffine,
    NotImplementableError,
    TypeSpace,
    check_revenue_equivalence,
    rochet_payments,
    revenue_interval,
)
from elicit.monotone import (
    _cmon_graph,
    _cycle_weight,
    _transpose,
    check_cmon,
    check_wmon,
    cmon_weights,
    longest_paths,
)
from helpers import (
    columnwise_longest_paths,
    report_text,
    separate_check_cmon,
    separate_check_revenue_equivalence,
    separate_revenue_interval,
    separate_rochet_payments,
)

# one cell per block, so tiles of one cell; 7 cells, tiles of 2; 61
# cells, tiles of 7; the default; and the whole matrix in one block and
# one tile
CELLS = {"cell": 1, "few": 7, "ragged": 61, "default": 1 << 15, "whole": 1 << 40}
# 190 and 600 leave a ragged last tile at 61 cells (tiles of 7) and at the
# default (tiles of 181); at 220 in R^3 some products of vectors @
# points.T round otherwise than those of points @ vectors.T, so weights
# formed in both orientations would not match bit for bit
SIZES = (1, 2, 13, 190, 220, 600)
TOL = 1e-9


def _families(m):
    """A gradient, a 12-piece max-affine selection (both pass), a noisy
    gradient that fails, and a rotation, d_i = (-y_i, x_i, 0), whose
    pairs weigh 0 and whose cycles of three or more types can weigh more
    (an edge's weight is not that of its reverse), on m types in R^3."""
    rng = np.random.default_rng(700 + m)
    pts = rng.uniform(-1, 1, size=(m, 3))
    g = MaxAffine(rng.normal(size=(12, 3)), rng.uniform(-0.5, 0.5, size=12))
    pieces = (pts @ g.slopes.T + g.intercepts).argmax(axis=1)
    noisy = 2.0 * pts + rng.normal(scale=0.5, size=(m, 3))
    families = {
        "gradient": LinearFamily(2.0 * pts),
        "max-affine": LinearFamily(g.slopes[pieces]),
        "noisy": LinearFamily(noisy),
        "rotation": LinearFamily(np.column_stack((-pts[:, 1], pts[:, 0], np.zeros(m)))),
    }
    return TypeSpace(pts), families


def _outcome(call):
    """What a call gives, as comparable text: its result's bits, or the
    type and message of the error it raises and a cycle it carries."""
    try:
        result = call()
    except Exception as exc:  # the errors must match, whatever they are
        return ("raises", type(exc).__name__, str(exc), getattr(exc, "cycle", None))
    if hasattr(result, "witnesses"):
        return ("report", report_text(result))
    if hasattr(result, "surplus"):  # a PaymentResult
        result = (result.surplus, result.payments)
    elif hasattr(result, "lower"):  # a RevenueInterval
        result = (result.lower, result.upper)
    return ("values", tuple(np.asarray(v, dtype=float).tobytes() for v in result))


@functools.lru_cache(maxsize=None)
def _cases():
    """(name, call, the separate searches' outcome) for the four callers
    on every family and size."""
    cases = []
    for m in SIZES:
        ts, families = _families(m)
        last = m - 1
        # consistent anchors on passing families; at m >= 13 anchors 0 and
        # m // 2 pinned far apart, so that more than one pair is
        # inconsistent and the first one named depends on the order
        anchor_sets = [{0: 0.0}, {last: 1.0, 0: -1.0}]
        if m >= 13:
            anchor_sets.append({m // 2: 50.0, last: 0.0, 0: -50.0})
        sources, targets, nowhere = sorted({0, last}), sorted({0, m // 2, last}), [m]
        if m >= 190:  # fewer calls where one-cell tiles and blocks are slow
            sources, targets = [last], [m // 2]
        if m == 600:  # one call of each kind, and no max-affine family
            del families["max-affine"]
            anchor_sets, nowhere = anchor_sets[:1], []
        for kind, fam in families.items():
            calls = {
                "check_cmon": (partial(check_cmon, ts, fam), partial(separate_check_cmon, ts, fam, TOL))
            }
            for t0 in sources + nowhere:  # m is no type
                calls[f"check_revenue_equivalence t0={t0}"] = (
                    partial(check_revenue_equivalence, ts, fam, t0=t0),
                    partial(separate_check_revenue_equivalence, ts, fam, t0, TOL),
                )
            for t0 in sources:
                calls[f"rochet_payments t0={t0}"] = (
                    partial(rochet_payments, ts, fam, t0=t0),
                    partial(separate_rochet_payments, ts, fam, t0, TOL),
                )
            for anchors in anchor_sets:
                for target in targets:
                    calls[f"revenue_interval anchors={anchors} target={target}"] = (
                        partial(revenue_interval, ts, fam, anchors, target),
                        partial(separate_revenue_interval, ts, fam, anchors, target, TOL),
                    )
            for name, (call, reference) in calls.items():
                cases.append((f"{name} {kind} m={m}", call, _outcome(reference)))
    return cases


def test_the_cases_pass_fail_and_raise():
    outcomes = {name: outcome for name, _, outcome in _cases()}
    kinds = {outcome[0] for outcome in outcomes.values()}
    assert kinds == {"report", "values", "raises"}
    errors = {outcome[1] for outcome in outcomes.values() if outcome[0] == "raises"}
    assert errors == {"NotImplementableError", "InconsistentAnchorsError", "ValueError"}
    failing = [o for name, o in outcomes.items() if name.startswith("check_cmon noisy m=600")]
    assert '"passed":false' in failing[0][1]
    for m in (13, 190, 600):  # a cycle of three or more types
        turning = json.loads(outcomes[f"check_cmon rotation m={m}"][1])
        assert len(turning["witnesses"][0]["indices"]) >= 3
    assert any('"passed":true' in o[1] for n, o in outcomes.items() if n.startswith("check_cmon"))
    # an inconsistency that another anchor order would name differently
    names = [o[2] for n, o in outcomes.items() if o[:2] == ("raises", "InconsistentAnchorsError")]
    assert any(text.startswith("anchor 0=") for text in names)
    assert any(not text.startswith("anchor 0=") for text in names)


@pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
def test_one_graph_gives_what_separate_searches_give(monkeypatch, cells):
    monkeypatch.setattr("elicit.core._BLOCK_CELLS", cells)
    for name, call, reference in _cases():
        if cells > 1 or not name.endswith("m=600"):  # 180 300 one-cell tiles take a second
            assert _outcome(call) == reference, name


@pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
def test_the_graph_is_the_weights_transposed(monkeypatch, cells):
    """The graph is the one product points @ vectors.T less its diagonal
    along the columns, with a -inf diagonal, and ``cmon_weights`` is its
    transpose; the reversed graph, the graph transposed in place in
    tiles, is ``cmon_weights`` with a -inf diagonal."""
    monkeypatch.setattr("elicit.core._BLOCK_CELLS", cells)
    for m in SIZES:
        ts, families = _families(m)
        inner = ts.points @ families["noisy"].vectors.T
        expected = inner - np.diag(inner)  # expected[v, u] = d_u . (t_v - t_u)
        assert cmon_weights(ts, families["noisy"]).tobytes() == expected.T.tobytes(), m
        np.fill_diagonal(expected, -np.inf)
        wt = _cmon_graph(ts, families["noisy"]).wt
        assert wt.tobytes() == expected.tobytes(), m
        _transpose(wt)
        assert wt.tobytes() == expected.T.tobytes(), m


def test_wmon_pair_slacks_are_two_cycles_of_the_graph():
    """At m = 257 in R^4 some products round otherwise in the two
    orientations, yet each pair slack of ``check_wmon`` is bit for bit the
    weight of that 2-cycle on the kernel's graph."""
    rng = np.random.default_rng(257)
    pts = rng.normal(size=(257, 4))
    ts, fam = TypeSpace(pts), LinearFamily(rng.normal(size=(257, 4)))
    weights = _cmon_graph(ts, fam).wt.T  # weights[u, v]: the edge u -> v
    witnesses = check_wmon(ts, fam, tol=TOL).witnesses
    assert len(witnesses) > 10_000
    slacks = np.array([w.slack for w in witnesses])
    cycles = np.array([_cycle_weight(weights, w.indices) for w in witnesses])
    assert slacks.tobytes() == cycles.tobytes()


def test_longest_paths_leaves_its_argument_as_it_was():
    # a zero and a nonzero diagonal, -inf edges, a failing family
    ts, families = _families(13)
    weights = [cmon_weights(ts, fam) for fam in families.values()]
    cut = weights[0].copy()
    cut[::3, 1::2] = -np.inf
    np.fill_diagonal(cut, 7.0)
    for w in weights + [cut]:
        before = w.copy()
        for source in (None, 0, 12):
            longest_paths(w, source=source)
            assert w.tobytes() == before.tobytes()
    as_lists = cut.tolist()
    longest_paths(as_lists, source=3)
    assert as_lists == cut.tolist()


@pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
def test_start_values_match_the_columnwise_kernel(monkeypatch, cells):
    """A mapping source gives, bit for bit, what the column-wise kernel
    gives from the same start vector, on passing and failing families."""
    monkeypatch.setattr("elicit.core._BLOCK_CELLS", cells)
    for m in SIZES:
        if cells == 1 and m == 600:  # one-cell blocks take seconds here
            continue
        ts, families = _families(m)
        rng = np.random.default_rng(800 + m)
        for kind, fam in families.items():
            weights = cmon_weights(ts, fam)
            nodes = rng.choice(m, size=min(m, 5), replace=False).tolist()
            start = dict(zip(nodes, rng.normal(scale=2.0, size=len(nodes)).tolist()))
            res = longest_paths(weights, source=start, tol=TOL)
            ref = columnwise_longest_paths(weights, source=start, tol=TOL)
            assert res.dist.tobytes() == ref.dist.tobytes(), (kind, m)
            assert res.pred.tobytes() == ref.pred.tobytes(), (kind, m)
            assert (res.cycle, res.cycle_weight, res.rounds, res.edges_examined) == (
                ref.cycle, ref.cycle_weight, ref.rounds, ref.edges_examined
            ), (kind, m)
        # one node at 0 is that node as the source
        one = longest_paths(weights, source={m - 1: 0.0}, tol=TOL)
        alone = longest_paths(weights, source=m - 1, tol=TOL)
        assert one.dist.tobytes() == alone.dist.tobytes()
        assert one.pred.tobytes() == alone.pred.tobytes()


def _per_anchor_interval(weights, anchors, target, tol):
    """The verdict of ``revenue_interval`` from one single-source search
    per anchor and one from the target: ("cycle",), ("inconsistent",) or
    ("values", max_s(a_s + d_s(t)), min_s(a_s - d_t(s)))."""
    runs = {s: longest_paths(weights, source=s, tol=tol) for s in anchors}
    runs[target] = longest_paths(weights, source=target, tol=tol)
    if any(r.cycle is not None for r in runs.values()):
        return ("cycle",)
    pairs = [(s, s2) for s in anchors for s2 in anchors if s != s2]
    if any(anchors[s] + runs[s].dist[s2] > anchors[s2] + tol for s, s2 in pairs):
        return ("inconsistent",)
    if target in anchors:
        return ("values", anchors[target], anchors[target])
    lower = max(v + runs[s].dist[target] for s, v in anchors.items())
    upper = min(v - runs[target].dist[s] for s, v in anchors.items())
    return ("values", lower, upper)


def test_interval_matches_the_per_anchor_formulas():
    """Two searches give what k + 1 single-source searches give: the same
    verdict, and endpoints within m * 2^-52 relative to the largest
    magnitude among the endpoint and the anchor values, whose sums with a
    path the endpoints are (an endpoint near 0 is a near cancellation of
    them).  The anchors lie on
    the least surplus from type 0, raised by 3 and some of them by up to
    0.02 more, which makes about a third of the sets inconsistent."""
    verdicts = set()
    for m in (13, 60, 190):
        ts, families = _families(m)
        rng = np.random.default_rng(900 + m)
        surplus = rochet_payments(ts, families["gradient"], t0=0).surplus
        for kind, fam in families.items():
            weights = cmon_weights(ts, fam)
            if kind in ("gradient", "max-affine"):
                surplus = rochet_payments(ts, fam, t0=0).surplus
            for trial in range(8):
                nodes = rng.choice(m, size=min(m, int(rng.integers(1, 9))), replace=False)
                lift = rng.uniform(0.0, 0.02, size=len(nodes)) * (trial % 2)
                anchors = dict(zip(nodes.tolist(), (surplus[nodes] + 3.0 + lift).tolist()))
                target = int(rng.integers(m))
                expected = _per_anchor_interval(weights, anchors, target, TOL)
                verdicts.add((kind, expected[0]))
                try:
                    got = revenue_interval(ts, fam, anchors, target, tol=TOL)
                except NotImplementableError:
                    assert expected == ("cycle",), (kind, m, trial)
                    continue
                except InconsistentAnchorsError:
                    assert expected == ("inconsistent",), (kind, m, trial)
                    continue
                assert expected[0] == "values", (kind, m, trial)
                for value, ref in zip((got.lower, got.upper), expected[1:]):
                    scale = max(abs(ref), *map(abs, anchors.values()))
                    assert abs(value - ref) <= m * 2**-52 * scale, (kind, m, trial)
    for kind in ("gradient", "max-affine"):
        assert {(kind, "values"), (kind, "inconsistent")} <= verdicts
    assert {("noisy", "cycle"), ("rotation", "cycle")} <= verdicts
