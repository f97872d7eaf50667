"""Every public entry point reads the numbers and indices a caller passes
through the checked readers of ``core``: a string, a boolean, null or an
int beyond the float range (for an index, any entry that is no whole
number in the int64 range) raises ``ValueError`` naming the argument,
where numpy would read ``"0.5"`` and ``True`` as numbers, and the same
call with a float there still succeeds."""

import math
import re

import numpy as np
import pytest

from elicit import (
    DimensionMismatchError,
    LabeledSample,
    LinearFamily,
    MaxAffine,
    OutcomeScoreTable,
    PowerDiagramSpec,
    ScoreTable,
    SquaredNorm,
    StepAllocation,
    TypeSpace,
    biconjugate,
    check_cmon,
    check_duality_identities,
    check_expert_separation,
    check_level_set_convexity,
    check_local_truthful,
    check_proper,
    check_revenue_equivalence,
    check_wmon_cells,
    conjugate,
    elicitation_game_equilibria,
    eval_convex,
    fit_weights,
    homothet_transform,
    make_decision_score,
    make_direct_score,
    make_scoring_rule,
    myerson_payment,
    power_cells,
    revenue_interval,
    rochet_payments,
    simplex_grid,
    subgradient,
)
from elicit import jsonio, lp
from elicit.monotone import longest_paths

#: What a caller may pass where a number belongs; none of it is one.
NOT_NUMBERS = ["0.5", True, None, 10**400]

SQ = SquaredNorm()
LINE = TypeSpace([[0.0], [1.0]])
GRID = TypeSpace([[0.0], [0.5], [1.0]])
TABLE = OutcomeScoreTable(reports=[[0.5, 0.5], [1.0, 0.0]], payoffs=[[0.0, 0.0], [1.0, -1.0]])
DECISIONS = make_decision_score(SQ, [[1.0]], [[[0.5, 0.5]]])
DIAGRAM = PowerDiagramSpec(sites=[[0.0], [1.0]], weights=[0.0, 0.0])
FAMILY = LinearFamily([[0.0], [2.0]])
DIRECT = make_direct_score(SQ, LINE)
STEP = StepAllocation(breakpoints=[0.0, 1.0], values=[0.0, 1.0])
SAMPLE = LabeledSample(points=[[0.0], [1.0]], labels=[0, 1])

#: (id, the call with x in one place of an otherwise valid input, what
#: its error must name, a float that makes the call valid).  An index
#: takes the whole float 1.0.
CASES = [
    ("TypeSpace", lambda x: TypeSpace([[0.0], [x]]), "points", 0.5),
    ("LinearFamily", lambda x: LinearFamily([[0.0], [x]]), "family", 0.5),
    ("MaxAffine-slopes", lambda x: MaxAffine([[x]], [0.0]), "slopes", 0.5),
    ("MaxAffine-intercepts", lambda x: MaxAffine([[1.0]], [x]), "intercepts", 0.5),
    ("ScoreTable-linear", lambda x: ScoreTable([0], [[x]], [0.0]), "linear", 0.5),
    ("ScoreTable-constant", lambda x: ScoreTable([0], [[1.0]], [x]), "constant", 0.5),
    ("eval_convex", lambda x: eval_convex(SQ, [0.5, x]), "point", 0.5),
    ("subgradient", lambda x: subgradient(SQ, [0.5, x]), "point", 0.5),
    ("conjugate", lambda x: conjugate(SQ, [x], GRID), "dual vector", 0.5),
    (
        "OutcomeScoreTable-reports",
        lambda x: OutcomeScoreTable(reports=[[0.5, x]], payoffs=[[0.0, 0.0]]),
        "reports",
        0.5,
    ),
    (
        "OutcomeScoreTable-payoffs",
        lambda x: OutcomeScoreTable(reports=[[0.5, 0.5]], payoffs=[[0.0, x]]),
        "payoffs",
        0.5,
    ),
    ("payoff_matrix", lambda x: TABLE.payoff_matrix([[0.5, x]]), "beliefs", 0.5),
    ("check_proper", lambda x: check_proper(TABLE, [[0.5, x]]), "belief", 0.5),
    (
        "check_expert_separation",
        lambda x: check_expert_separation(TABLE, [[0.5, x]], [0.5, 0.5], 0.0, 1.0),
        "belief",
        0.5,
    ),
    ("make_scoring_rule", lambda x: make_scoring_rule(SQ, [[0.5, x]]), "reports", 0.5),
    (
        "make_decision_score-reports",
        lambda x: make_decision_score(SQ, [[1.0]], [[[0.5, x]]]),
        "reports",
        0.5,
    ),
    (
        "make_decision_score-decisions",
        lambda x: make_decision_score(SQ, [[0.5, x]], [[[0.5, 0.5], [0.5, 0.5]]]),
        "decisions",
        0.5,
    ),
    ("expected_value", lambda x: DECISIONS.expected_value(0, [[0.5, x]]), "belief matrix", 0.5),
    ("biconjugate-t", lambda x: biconjugate(SQ, [x], GRID, [[0.5]]), "point", 0.5),
    ("biconjugate-duals", lambda x: biconjugate(SQ, [0.5], GRID, [[x]]), "duals", 0.5),
    ("duality_identities", lambda x: check_duality_identities(SQ, GRID, [[x]]), "duals", 0.5),
    (
        "elicitation_game_equilibria",
        lambda x: elicitation_game_equilibria(SQ, GRID, [[x]], GRID),
        "d_grid",
        0.5,
    ),
    (
        "StepAllocation-breakpoints",
        lambda x: StepAllocation(breakpoints=[0.0, x], values=[0.0, 1.0]),
        "breakpoints",
        0.5,
    ),
    (
        "StepAllocation-values",
        lambda x: StepAllocation(breakpoints=[0.0, 1.0], values=[0.0, x]),
        "values",
        0.5,
    ),
    (
        "PowerDiagramSpec-weights",
        lambda x: PowerDiagramSpec(sites=[[0.0], [1.0]], weights=[0.0, x]),
        "weights",
        0.5,
    ),
    ("power_cells", lambda x: power_cells(DIAGRAM, [[x]]), "points", 0.5),
    ("homothet_transform", lambda x: homothet_transform(DIAGRAM, 2.0, [x]), "offset p0", 0.5),
    ("longest_paths", lambda x: longest_paths([[0.0, x], [0.0, 0.0]]), "weights", -0.5),
    ("feasible_point-A", lambda x: lp.feasible_point([[x]], [1.0]), "A", 0.5),
    ("feasible_point-b", lambda x: lp.feasible_point([[1.0]], [x]), "b", 0.5),
    (
        "LabeledSample-labels",
        lambda x: LabeledSample(points=[[0.0], [1.0]], labels=[0, x]),
        "labels entry",
        1.0,
    ),
    (
        "check_local_truthful-report_of",
        lambda x: check_local_truthful(DIRECT, LINE, [0, x], radius=2.0),
        "report_of entry",
        1.0,
    ),
    (
        "revenue_interval-anchor",
        lambda x: revenue_interval(LINE, FAMILY, {0: 0.0, x: 1.0}, target=1),
        "anchor index",
        1.0,
    ),
    (
        "revenue_interval-target",
        lambda x: revenue_interval(LINE, FAMILY, {0: 0.0}, target=x),
        "target",
        1.0,
    ),
    (
        "longest_paths-source-node",
        lambda x: longest_paths(np.zeros((2, 2)), source={x: 0.0}),
        "source node entry",
        1.0,
    ),
    (
        "longest_paths-source-value",
        lambda x: longest_paths(np.zeros((2, 2)), source={0: x}),
        "source values",
        0.5,
    ),
    (
        "expected_value-report_idx",  # DECISIONS has one report
        lambda x: DECISIONS.expected_value(x, [[0.5, 0.5]]),
        "report index",
        0.0,
    ),
    (
        "load_typespace-dim",
        lambda x: jsonio.load_typespace({"dim": x, "points": [[0.0]]}),
        "declared dim",
        1.0,
    ),
    (
        "load_family_file",
        lambda x: jsonio.load_family_file({"typeSpace": {"points": [[0.0]]}, "family": [[x]]}),
        "family",
        0.5,
    ),
    (
        "load_convex-intercept",
        lambda x: jsonio.load_convex({"maxAffine": [{"a": [1.0], "b": x}]}),
        "intercepts",
        0.5,
    ),
    (
        "load_outcome_table-payoffs",
        lambda x: jsonio.load_outcome_table({"reports": [[0.5, 0.5]], "payoffs": [[0.0, x]]}),
        "payoffs",
        0.5,
    ),
    (
        "load_score_table-constant",
        lambda x: jsonio.load_score_table({"reports": [0], "linear": [[1.0]], "constant": [x]}),
        "constant",
        0.5,
    ),
    ("simplex_grid-n_outcomes", lambda x: simplex_grid(x, 3), "n_outcomes", 2.0),
    ("simplex_grid-denominator", lambda x: simplex_grid(3, x), "denominator", 2.0),
    # scalar arguments
    ("check_cmon-tol", lambda x: check_cmon(LINE, FAMILY, tol=x), "tolerance", 0.5),
    (
        "check_local_truthful-radius",
        lambda x: check_local_truthful(DIRECT, LINE, [0, 1], radius=x),
        "radius",
        0.5,
    ),
    ("rochet_payments-t0", lambda x: rochet_payments(LINE, FAMILY, t0=x), "base type", 1.0),
    (
        "check_revenue_equivalence-t0",
        lambda x: check_revenue_equivalence(LINE, FAMILY, t0=x),
        "base type",
        1.0,
    ),
    (
        "revenue_interval-anchor-value",
        lambda x: revenue_interval(LINE, FAMILY, {0: x}, target=1),
        "anchor 0",
        0.5,
    ),
    ("myerson_payment-t", lambda x: myerson_payment(STEP, x), "t", 0.5),
    ("myerson_payment-p0", lambda x: myerson_payment(STEP, 0.5, p0=x), "p0", 0.5),
    ("StepAllocation.value_at", lambda x: STEP.value_at(x), "t", 0.5),
    ("homothet_transform-alpha", lambda x: homothet_transform(DIAGRAM, x, [0.0]), "alpha", 0.5),
    (
        "check_level_set_convexity-eps",
        lambda x: check_level_set_convexity(SAMPLE, eps=x),
        "eps",
        0.5,
    ),
]

#: (id, the call with x as a threshold, its name): against a nan
#: threshold no comparison fails, so the check could not.
THRESHOLDS = [
    (
        "check_expert_separation-delta_accept",
        lambda x: check_expert_separation(TABLE, [[0.5, 0.5]], [0.5, 0.5], x, 1.0),
        "delta_accept",
    ),
    (
        "check_expert_separation-delta_reject",
        lambda x: check_expert_separation(TABLE, [[0.5, 0.5]], [0.5, 0.5], 0.0, x),
        "delta_reject",
    ),
    (
        "elicitation_game_equilibria-eq_tol",
        lambda x: elicitation_game_equilibria(SQ, GRID, [[0.5]], GRID, eq_tol=x),
        "eq_tol",
    ),
]
CASES += [(ident, call, name, 0.5) for ident, call, name in THRESHOLDS]


@pytest.mark.parametrize("call,name,good", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_what_is_no_number_is_refused_by_name(call, name, good):
    for bad in NOT_NUMBERS:
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}\b"):
            call(bad)
    call(good)  # the reader does not refuse everything


@pytest.mark.parametrize("call,name", [t[1:] for t in THRESHOLDS], ids=[t[0] for t in THRESHOLDS])
def test_a_nan_threshold_is_refused_by_name(call, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}\b.* got nan$"):
        call(math.nan)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_an_allocation_is_read_on_nonnegative_finite_types_only(t):
    with pytest.raises(ValueError, match=rf"^t must be nonnegative and finite, got {t}$"):
        STEP.value_at(t)
    assert STEP.value_at(1.0) == 1.0


def test_a_boolean_array_among_the_rows_is_refused():
    # numpy would cast the whole to float, reading True as 1.0
    with pytest.raises(ValueError, match=r"^points must hold numbers, not booleans$"):
        TypeSpace([np.array([0.5]), np.array([True])])
    assert TypeSpace([np.array([0.5]), np.array([1.0])]).points.tolist() == [[0.5], [1.0]]


def _relabeled(x):
    """A sample of two points labeled 0 and x, x set past the constructor,
    which refuses a negative label before the sites are known."""
    sample = LabeledSample(points=[[0.0], [1.0]], labels=[0, 0])
    sample.labels = np.array([0, x])
    return sample


#: (id, the call with x as an index, its name, the number of items)
RANGES = [
    ("rochet_payments-t0", lambda x: rochet_payments(LINE, FAMILY, t0=x), "base type", 2),
    (
        "check_revenue_equivalence-t0",
        lambda x: check_revenue_equivalence(LINE, FAMILY, t0=x),
        "base type",
        2,
    ),
    (
        "revenue_interval-target",
        lambda x: revenue_interval(LINE, FAMILY, {0: 0.0}, target=x),
        "target",
        2,
    ),
    (
        "revenue_interval-anchor",
        lambda x: revenue_interval(LINE, FAMILY, {x: 0.0}, target=1),
        "anchor index",
        2,
    ),
    (
        "check_local_truthful-report_of",
        lambda x: check_local_truthful(DIRECT, LINE, [0, x], radius=2.0),
        "report_of entry",
        2,
    ),
    (
        "check_local_truthful-report_of-int64",
        lambda x: check_local_truthful(DIRECT, LINE, np.array([0, x]), radius=2.0),
        "report_of entry",
        2,
    ),
    (
        "expected_value-report_idx",
        lambda x: DECISIONS.expected_value(x, [[0.5, 0.5]]),
        "report index",
        1,
    ),
    ("longest_paths-source", lambda x: longest_paths(np.zeros((2, 2)), source=x), "source", 2),
    (
        "longest_paths-source-node",
        lambda x: longest_paths(np.zeros((2, 2)), source={1: 0.0, x: 0.0}),
        "source node entry",
        2,
    ),
    (
        "fit_weights-labels",
        lambda x: fit_weights([[0.0], [1.0]], _relabeled(x)),
        "labels entry",
        2,
    ),
    (
        "check_wmon_cells-labels",
        lambda x: check_wmon_cells([[0.0], [1.0]], _relabeled(x)),
        "labels entry",
        2,
    ),
]


@pytest.mark.parametrize("call,name,size", [r[1:] for r in RANGES], ids=[r[0] for r in RANGES])
def test_an_index_outside_its_range_is_refused_by_name(call, name, size):
    # one reader, core._index, for every index read against a size
    for bad in (-1, size, 2**62):
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, {size}\), got {bad}$"):
            call(bad)
    call(size - 1)


@pytest.mark.parametrize(
    "source,message",
    [
        ({0: 0.0, 2: 1.0}, r"source node entry must be in \[0, 2\), got 2"),
        ({-1: 0.0}, r"source node entry must be in \[0, 2\), got -1"),
        ({0.5: 0.0}, r"source node entry 0.5 is not an integer in the int64 range"),
        ({0: 0.0, 1: math.inf}, r"source values must be finite, got inf"),
        ({0: -math.inf}, r"source values must be finite, got -inf"),
        ({1: math.nan}, r"source values must be finite, got nan"),
        ({}, r"source must map at least one node to its start value"),
    ],
)
def test_a_bad_start_mapping_is_one_line_value_error(source, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        longest_paths(np.zeros((2, 2)), source=source)


def test_a_label_is_a_nonnegative_index_before_the_sites_are_known():
    with pytest.raises(ValueError, match=r"^labels entry must be in \[0, inf\), got -1$"):
        LabeledSample(points=[[0.0], [1.0]], labels=[0, -1])
    assert LabeledSample(points=[[0.0]], labels=[2**62]).labels.tolist() == [2**62]


#: (id, the constructor with x as its second extended real, the same
#: through its JSON loader, the extended reals it holds)
EXTENDED = [
    (
        "ScoreTable",
        lambda x: ScoreTable([0, 1], [[0.0], [1.0]], [0.0, x]),
        lambda x: jsonio.load_score_table(
            {"reports": [0, 1], "linear": [[0.0], [1.0]], "constant": [0.0, x]}
        ),
        lambda score: score.constant,
    ),
    (
        "OutcomeScoreTable",
        lambda x: OutcomeScoreTable(reports=[[1.0, 0.0]], payoffs=[[0.0, x]]),
        lambda x: jsonio.load_outcome_table({"reports": [[1.0, 0.0]], "payoffs": [[0.0, x]]}),
        lambda table: table.payoffs.ravel(),
    ),
]


@pytest.mark.parametrize(
    "make,load,values", [e[1:] for e in EXTENDED], ids=[e[0] for e in EXTENDED]
)
def test_minus_inf_is_read_from_its_string_by_constructor_and_loader_alike(make, load, values):
    for read in (make, load):
        assert values(read("-inf")).tolist() == [0.0, -math.inf]
        assert values(read(-math.inf)).tolist() == [0.0, -math.inf]
    for bad in NOT_NUMBERS + ["inf", "-Infinity", math.inf, math.nan]:
        with pytest.raises(ValueError) as made:
            make(bad)
        with pytest.raises(ValueError) as loaded:
            load(bad)
        assert str(made.value) == str(loaded.value)
    assert str(made.value).endswith("must be finite or -inf, got nan")


def test_nested_constants_are_refused_by_constructor_and_loader_alike():
    linear = [[0.0], [1.0]]
    for read in (
        lambda c: ScoreTable([0, 1], linear, c),
        lambda c: jsonio.load_score_table({"reports": [0, 1], "linear": linear, "constant": c}),
    ):
        with pytest.raises(DimensionMismatchError, match=r"^constant must be 1-D$"):
            read([[0.0], [1.0]])


def test_nested_slopes_are_refused_by_constructor_and_loader_alike():
    # the loader used to flatten each slope, reading [[1.0], [0.0]] as [1.0, 0.0]
    for read in (
        lambda a: MaxAffine([a], [0.0]),
        lambda a: jsonio.load_convex({"maxAffine": [{"a": a, "b": 0.0}]}),
    ):
        with pytest.raises(
            DimensionMismatchError, match=r"^slopes must be a 2-D array of row vectors$"
        ):
            read([[1.0], [0.0]])
        assert read([1.0, 0.0]).slopes.tolist() == [[1.0, 0.0]]


def test_an_expectation_reads_distributions_and_a_lookup_any_numbers():
    with pytest.raises(ValueError, match=r"^beliefs \[2.0, -1.0\] is not on the probability"):
        TABLE.payoff_matrix([[2.0, -1.0]])
    assert TABLE.distances([[2.0, -1.0]]).tolist() == [[1.5, 1.0]]
    # one belief where a list of them belongs: a dimension error, not "belief [0.5] is off"
    with pytest.raises(DimensionMismatchError, match=r"^belief dimension != outcome count$"):
        check_proper(TABLE, [0.5, 0.5])


def test_whole_float_grid_counts_are_read_as_counts():
    assert simplex_grid(2.0, 3).tolist() == simplex_grid(2, 3).tolist()
    assert simplex_grid(3, 2.0).tolist() == simplex_grid(3, 2).tolist()
