"""The pairwise verifiers read their one m x m matrix a block of rows at
a time (``core._scan_pairs``, blocks of ``core._BLOCK_CELLS`` cells), and
``check_proper`` its one beliefs x reports matrix of gains.
Every block size must give the loop references' reports and the
whole-matrix errors bit for bit, and no verifier, nor a caller of the
Bellman-Ford kernel, may hold a second m x m array."""

import functools
import re
import tracemalloc

import numpy as np
import pytest

from elicit import (
    LinearFamily,
    MaxAffine,
    NegEntropy,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    check_revenue_equivalence,
    check_subgradient_selection,
    check_truthful,
    check_proper,
    check_wmon_cells,
    make_direct_score,
    make_scoring_rule,
    revenue_interval,
    rochet_payments,
    simplex_grid,
)
from elicit.core import _BLOCK_CELLS
from elicit.monotone import check_cmon, check_local_truthful, check_wmon
from elicit.properties import LabeledSample
from elicit.scoring import OutcomeScoreTable
from helpers import (
    loop_check_local_truthful,
    loop_check_proper,
    loop_check_subgradient_selection,
    loop_check_truthful,
    loop_check_wmon,
    loop_check_wmon_cells,
    report_text,
)

# one row per block; 7 cells, one row again, for every m here but 2; 61
# cells, blocks of 4 rows of 13 and a ragged last block of 1; and the
# whole matrix in one block
CELLS = {"row": 1, "few": 7, "ragged": 61, "whole": 1 << 40}
SIZES = (1, 2, 13, 190)
TOL = 1e-9


def _overflowing_score(ts):
    """The direct score of the squared norm but for reports 0 and 1, which
    pay 1e308 t_0: finite at their own types, -inf by overflow at the
    types with t_0 below -1.8."""
    score = make_direct_score(SquaredNorm(), ts)
    score.linear[:2] = 0.0
    score.linear[:2, 0] = 1e308
    return score


@functools.lru_cache(maxsize=None)
def _cases():
    """(name, call, the loop reference's report text) for every verifier
    on passing and failing inputs of every size."""
    cases = []

    def add(name, call, reference):
        cases.append((name, call, report_text(reference)))

    for m in SIZES:
        rng = np.random.default_rng(870 + m)
        pts = rng.uniform(-1, 1, size=(m, 3))
        ts = TypeSpace(pts)
        # a gradient, and one perturbed so that a few pairs fail
        noisy = 2.0 * pts + rng.normal(scale=0.3, size=(m, 3))
        families = {"gradient": LinearFamily(2.0 * pts), "noisy": LinearFamily(noisy)}
        for kind, fam in families.items():
            add(
                f"check_wmon {kind} m={m}",
                functools.partial(check_wmon, ts, fam),
                loop_check_wmon(ts, fam, TOL),
            )
            max_affine = MaxAffine(rng.normal(size=(4, 3)), rng.uniform(-1, 1, size=4))
            for g in (SquaredNorm(), max_affine):
                add(
                    f"check_subgradient_selection {kind} {type(g).__name__} m={m}",
                    functools.partial(check_subgradient_selection, g, fam, ts),
                    loop_check_subgradient_selection(g, fam, ts, TOL),
                )

        sites = rng.uniform(-1, 1, size=(4, 3))
        sample = LabeledSample(pts, rng.integers(0, 4, size=m))
        add(
            f"check_wmon_cells m={m}",
            functools.partial(check_wmon_cells, sites, sample),
            loop_check_wmon_cells(sites, sample, TOL),
        )

        # types up to 4 to the left in the first coordinate, where the
        # overflowing score scores -inf
        left = pts.copy()
        left[2:, 0] = -4.0 * abs(left[2:, 0])
        ts_left = TypeSpace(left)
        overflowing = _overflowing_score(ts_left)
        assert (m < 13) or np.isneginf(overflowing.payoff_matrix(ts_left)).any()
        direct = make_direct_score(SquaredNorm(), ts)
        shifted = direct.constant + rng.normal(scale=0.01, size=m)
        noisy = ScoreTable(direct.reports, direct.linear, shifted)
        scores = {
            "direct": (ts, direct),
            "noisy": (ts, noisy),
            "overflowing": (ts_left, overflowing),
        }
        for kind, (types, score) in scores.items():
            add(
                f"check_truthful {kind} m={m}",
                functools.partial(check_truthful, score, types),
                loop_check_truthful(score, types, TOL),
            )
            for radius in (0.6, 10.0):
                add(
                    f"check_local_truthful {kind} radius={radius} m={m}",
                    functools.partial(check_local_truthful, score, types, range(m), radius),
                    loop_check_local_truthful(score, types, range(m), radius, TOL),
                )

        # more reports than types: the unsent ones score -inf everywhere,
        # and the types send reports that are not their own index
        extra = 3
        linear = rng.uniform(-1, 1, size=(m + extra, 3))
        constant = rng.uniform(-1, 1, size=m + extra)
        report_of = rng.permutation(m + extra)[:m]
        constant[np.setdiff1d(np.arange(m + extra), report_of)] = -np.inf
        table = ScoreTable(list(range(m + extra)), linear, constant)
        add(
            f"check_local_truthful report_of m={m}",
            functools.partial(check_local_truthful, table, ts, report_of, 0.6),
            loop_check_local_truthful(table, ts, report_of, 0.6, TOL),
        )
    return cases


def _proper_tables(m, rng):
    """Tables of m reports on 3 outcomes, each report row followed by a
    near copy 1e-6 away in max norm (a strict tie under the squared norm)
    and, from m = 13 on, by one 5e-10 away, which matches the same
    beliefs but is distinct at a tol of 1e-12."""
    base = rng.dirichlet(np.ones(3), size=max(1, m // 2))
    base[::3, 0] = 0.0  # zero coordinates, where the log score is -inf
    base /= base.sum(axis=1, keepdims=True)
    unit = np.array([1.0, -1.0, 0.0])
    near = [base, np.clip(base + 1e-6 * unit, 0.0, None)]
    if m >= 13:
        near.append(np.clip(base - 5e-10 * unit, 0.0, None))
    reports = np.stack(near, axis=1).reshape(-1, 3)[:m]
    reports /= reports.sum(axis=1, keepdims=True)
    proper = make_scoring_rule(SquaredNorm(), reports)
    noisy = OutcomeScoreTable(reports, proper.payoffs + rng.normal(scale=1e-3, size=reports.shape))
    return {
        "squared": proper,
        "noisy": noisy,
        "log": make_scoring_rule(NegEntropy(), reports),  # -inf payoffs
    }


#: a gain of exactly -TOL: report 1 pays TOL less than report 0 under
#: belief [1, 0], a strict tie at the bound itself
AT_THE_BOUND = OutcomeScoreTable([[1.0, 0.0], [0.5, 0.5]], [[0.0, 0.0], [-TOL, 0.0]])


@functools.lru_cache(maxsize=None)
def _proper_cases():
    """(name, call, the loop reference's report text) for ``check_proper``
    on passing and failing tables, with and without beliefs, strict or
    not, at the default tol and one below ``SIMPLEX_TOL``."""
    cases = []
    for m in SIZES:
        rng = np.random.default_rng(900 + m)
        tables = _proper_tables(m, rng)
        if m == 2:
            tables["at the bound"] = AT_THE_BOUND
        for kind, table in tables.items():
            # twice as many beliefs as reports, out of report order and
            # repeated, so a belief's truthful report is off the diagonal
            picks = rng.integers(0, m, size=2 * m)
            for beliefs in (None, table.reports[picks].tolist()):
                for strict in (False, True):
                    for tol in (TOL, 1e-12):
                        name = (
                            f"check_proper {kind} m={m} beliefs={beliefs is not None} "
                            f"strict={strict} tol={tol}"
                        )
                        call = functools.partial(check_proper, table, beliefs, strict, tol)
                        reference = loop_check_proper(table, beliefs, strict, tol)
                        cases.append((name, call, report_text(reference)))
    return cases


def test_the_proper_cases_pass_fail_and_tie():
    texts = [text for _, _, text in _proper_cases()]
    assert any('"passed":true' in text for text in texts)
    assert any('"kind":"deviation"' in text for text in texts)
    assert any('"kind":"tie"' in text for text in texts)
    at_the_bound = [text for name, _, text in _proper_cases() if "at the bound" in name]
    assert any('"indices":[0,1],"kind":"tie","slack":0}' in text for text in at_the_bound)


@pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
def test_check_proper_at_every_block_size_gives_the_loop_reports(monkeypatch, cells):
    monkeypatch.setattr("elicit.core._BLOCK_CELLS", cells)
    for name, call, reference in _proper_cases():
        assert report_text(call()) == reference, name


def test_check_proper_holds_its_gains_and_the_payoff_temporaries():
    # the 861 reports of the squared norm on simplex_grid(3, 40): the
    # payoff matrix, one buffer of each outcome's terms and three bool
    # masks set the peak, about 2.63 matrices; no mask or slack matrix
    # over pairs is added to them
    table = make_scoring_rule(SquaredNorm(), simplex_grid(3, 40))
    matrix = len(table) ** 2 * 8
    tracemalloc.start()
    try:
        report = check_proper(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 2.75 * matrix, peak / matrix


def test_every_verifier_passes_and_fails_among_the_cases():
    for verifier in (
        "check_wmon ",
        "check_wmon_cells",
        "check_subgradient",
        "check_truthful",
        "check_local",
    ):
        texts = [text for name, _, text in _cases() if name.startswith(verifier)]
        assert any('"passed":true' in text for text in texts), verifier
        assert any('"passed":false' in text for text in texts), verifier


@pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
def test_every_block_size_gives_the_loop_reports(monkeypatch, cells):
    monkeypatch.setattr("elicit.core._BLOCK_CELLS", cells)
    for name, call, reference in _cases():
        assert report_text(call()) == reference, name


@pytest.mark.parametrize("cells", CELLS.values(), ids=CELLS.keys())
def test_payments_are_bitwise_those_of_one_block(monkeypatch, cells):
    for m in SIZES:
        rng = np.random.default_rng(880 + m)
        pts = rng.uniform(-1, 1, size=(m, 3))
        ts = TypeSpace(pts)
        g = MaxAffine(rng.normal(size=(12, 3)), rng.uniform(-0.5, 0.5, size=12))
        pieces = (pts @ g.slopes.T + g.intercepts).argmax(axis=1)
        for fam in (LinearFamily(2.0 * pts), LinearFamily(g.slopes[pieces])):
            for t0 in (0, m - 1):
                whole = rochet_payments(ts, fam, t0=t0)
                with monkeypatch.context() as patch:
                    patch.setattr("elicit.core._BLOCK_CELLS", cells)
                    blocked = rochet_payments(ts, fam, t0=t0)
                assert blocked.payments.tobytes() == whole.payments.tobytes()
                assert blocked.surplus.tobytes() == whole.surplus.tobytes()


class TestErrorOrder:
    """Overflowing gains are named agent first, as the whole matrix names
    them, though the blocks run report first: agent 1 gains inf by report
    0, which a scan of the reports meets first, and agent 0 by report
    m - 1, which the error names."""

    M = 6

    def _case(self):
        m = self.M
        pts = np.zeros((m, 2))
        pts[:, 0] = np.linspace(-0.5, 0.5, m)
        pts[:, 1] = 0.3
        pts[0], pts[1], pts[m - 1] = [-1.0, 1.0], [1.0, 0.0], [0.0, -1.0]
        vectors = np.zeros((m, 2))
        vectors[0], vectors[m - 1] = [1e308, 0.0], [0.0, 1e308]
        g = MaxAffine([[0.0, 0.0]], [0.0])  # G = 0
        constant = -np.einsum("ij,ij->i", vectors, pts)  # the tangent score of G
        score = ScoreTable(list(range(m)), vectors, constant)
        return TypeSpace(pts), LinearFamily(vectors), g, score

    def test_the_case_has_exactly_the_two_overflows(self):
        ts, _, _, score = self._case()
        with np.errstate(over="ignore"):
            values = score.payoff_matrix(ts)
            gains = values - np.diag(values)[None, :]  # gains[report, agent]
        assert np.argwhere(gains == np.inf).tolist() == [[0, 1], [self.M - 1, 0]]

    @pytest.mark.parametrize("cells", [1, 1 << 40], ids=["row", "whole"])
    def test_the_first_agent_is_named(self, monkeypatch, cells):
        monkeypatch.setattr("elicit.core._BLOCK_CELLS", cells)
        ts, fam, g, score = self._case()
        message = re.escape(
            f"agent 0 gains inf by report {self.M - 1}: deviation gains must be finite or -inf"
        )
        for call in (
            lambda: check_truthful(score, ts),
            lambda: check_subgradient_selection(g, fam, ts),
            lambda: check_local_truthful(score, ts, range(self.M), radius=0.5),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    @pytest.mark.parametrize("cells", [1, 1 << 40], ids=["row", "whole"])
    def test_a_non_finite_own_score_is_named_first(self, monkeypatch, cells):
        monkeypatch.setattr("elicit.core._BLOCK_CELLS", cells)
        ts, _, _, score = self._case()
        constant = score.constant.copy()
        constant[2] = -np.inf  # type 2's own report, beside the overflows
        score = ScoreTable(score.reports, score.linear, constant)
        message = "^truthful reports must score finite values$"
        with pytest.raises(ValueError, match=message):
            check_truthful(score, ts)
        with pytest.raises(ValueError, match=message):
            check_local_truthful(score, ts, range(self.M), radius=0.5)


def test_peak_memory_is_the_one_matrix_and_a_few_blocks():
    # each verifier holds its payoff or weight matrix and at most eight
    # blocks of _BLOCK_CELLS floats; the callers of the Bellman-Ford
    # kernel hold the weights laid out for it, which the reversed search
    # and the post-check of rochet_payments reuse
    m = 600
    rng = np.random.default_rng(890)
    pts = rng.uniform(-1, 1, size=(m, 3))
    ts, fam = TypeSpace(pts), LinearFamily(2.0 * pts)
    score = make_direct_score(SquaredNorm(), ts)
    matrix, blocks = m * m * 8, 8 * _BLOCK_CELLS * 8
    calls = {
        "check_truthful": lambda: check_truthful(score, ts),
        "check_subgradient_selection": lambda: check_subgradient_selection(SquaredNorm(), fam, ts),
        "check_wmon": lambda: check_wmon(ts, fam),
        "check_local_truthful": lambda: check_local_truthful(score, ts, range(m), 0.5),
        "check_cmon": lambda: check_cmon(ts, fam),
        "rochet_payments": lambda: rochet_payments(ts, fam),
        "revenue_interval": lambda: revenue_interval(ts, fam, {0: 0.0}, m // 2),
        # the finite type space pins no surplus: every other target fails
        "check_revenue_equivalence": lambda: check_revenue_equivalence(ts, fam),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert getattr(result, "passed", True) or name == "check_revenue_equivalence", name
        assert peak < matrix + blocks, (name, peak / matrix)
