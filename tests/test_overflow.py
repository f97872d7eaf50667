"""Finite inputs whose arithmetic leaves the float range: each function
raises one ``ValueError`` that says so, and numpy prints no warning."""

import warnings

import numpy as np
import pytest

from elicit import (
    DomainError,
    LabeledSample,
    LinearFamily,
    MaxAffine,
    NegEntropy,
    OutcomeScoreTable,
    PowerDiagramSpec,
    ScoreTable,
    SquaredNorm,
    StepAllocation,
    TypeSpace,
    biconjugate,
    bregman_to_power,
    check_duality_identities,
    check_expert_separation,
    check_revenue_equivalence,
    check_subgradient_selection,
    check_wmon_cells,
    conjugate,
    elicitation_game_equilibria,
    eval_convex,
    homothet_transform,
    make_decision_score,
    make_direct_score,
    make_scoring_rule,
    rochet_payments,
    subgradient,
)

BIG = 1e308
MAX = np.finfo(float).max
SQ = SquaredNorm()
FLAT = MaxAffine(slopes=[[0.0]], intercepts=[0.0])  # G = 0
IDENTITY = MaxAffine(slopes=[[1.0]], intercepts=[0.0])  # G(t) = t
UNIT = TypeSpace([[0.0], [1.0]])
HUGE = TypeSpace([[0.0], [BIG]])  # G = t^2 overflows at BIG
G_OVERFLOW = r"G overflows the float range at \[1e\+308\]"
A = (0.7 * BIG) ** 0.5  # A^2 and 2 A^2 are finite, 3 A^2 is not

# at (10, 20) both pieces, 1e309 and 2e309, round to inf: the argmax
# would pick the first, whose slope is not the subgradient there
TIED = MaxAffine(slopes=[[BIG, 0.0], [0.0, BIG]], intercepts=[0.0, 0.0])

# every payoff -1e308 or 1e308: a threshold at the other end of the range
# is missed by 2e308
LOW, HIGH = OutcomeScoreTable([[0.5, 0.5]], [[-BIG, -BIG]]), OutcomeScoreTable([[0.5, 0.5]], [[BIG, BIG]])

# the unit types with d_0 = (a, x) and d_1 = (x, a + 2**969): each cmon
# weight of the family and of the swapped family rounds to at most half
# the float range, and the width of type 1 is exactly the largest float,
# but its upper end, 2**969 plus half the range, rounds up to 2**1023
WIDE_A, WIDE_X = 2.0**1021 - 2.0**970 - 2.0**968, -1.5 * 2.0**1022
WIDE = LinearFamily([[WIDE_A, WIDE_X], [WIDE_X, WIDE_A + 2.0**969]])

CASES = [
    ("eval_convex", lambda: eval_convex(TIED, [10.0, 20.0]), r"G overflows .* \[10.0, 20.0\]"),
    ("subgradient", lambda: subgradient(TIED, [10.0, 20.0]), r"G overflows .* \[10.0, 20.0\]"),
    ("conjugate", lambda: conjugate(SQ, [1.0], HUGE), G_OVERFLOW),
    (
        "conjugate-inner-product",
        lambda: conjugate(IDENTITY, [BIG], TypeSpace([[0.0], [10.0]])),
        r"the conjugate overflows the float range at \[1e\+308\]",
    ),
    (
        "conjugate-closed-form",  # |d/2|^2 = 3 * 0.7e308 at d/2 = a(1, 1, 1), a corner of the box
        lambda: conjugate(SQ, [2.0 * A] * 3, TypeSpace(A * np.eye(3))),
        r"the conjugate overflows the float range at \[1.67",
    ),
    (
        "bregman_to_power",  # G(t) = 2t at the site 1e308
        lambda: bregman_to_power(MaxAffine([[2.0]], [0.0]), [[0.0], [BIG]]),
        G_OVERFLOW,
    ),
    (
        "bregman_to_power-weight",  # |dG|^2 / 4 of a slope 1.5e154
        lambda: bregman_to_power(MaxAffine([[1.5e154]], [0.0]), [[1.0]], UNIT),
        "weights must be finite",
    ),
    (
        "elicitation_game_equilibria",
        lambda: elicitation_game_equilibria(SQ, HUGE, [[0.0]], UNIT),
        G_OVERFLOW,
    ),
    (
        "elicitation_game_equilibria-gap",  # G*(1e308) - <1e308, -1>
        lambda: elicitation_game_equilibria(FLAT, TypeSpace([[-1.0]]), [[BIG]], UNIT),
        r"the Fenchel-Young gap overflows the float range at \[1e\+308\]",
    ),
    (
        "homothet_transform",
        lambda: homothet_transform(PowerDiagramSpec([[0.0], [BIG]], [0.0, 0.0]), 2.0, [0.0]),
        "sites must be finite",
    ),
    ("check_duality_identities", lambda: check_duality_identities(SQ, HUGE, [[1.0]]), G_OVERFLOW),
    (
        "check_duality_identities-terms",  # G*(1e308) - <1e308, -1>
        lambda: check_duality_identities(FLAT, TypeSpace([[-1.0], [1.0]]), [[BIG]]),
        r"the Fenchel-Young gap overflows the float range at \[1e\+308\]",
    ),
    ("biconjugate", lambda: biconjugate(SQ, [1.0], HUGE, [[0.0], [1.0]]), G_OVERFLOW),
    (
        "biconjugate-inner-product",
        lambda: biconjugate(FLAT, [2.0], UNIT, [[BIG]]),
        r"the biconjugate overflows the float range at \[2.0\]",
    ),
    (
        "make_direct_score",
        lambda: make_direct_score(SQ, HUGE),
        r"the subgradient of G overflows the float range at \[1e\+308\]",
    ),
    (
        "make_direct_score-constant",  # G(t) = 1e308 is finite, <dG, t> = 2e308 is not
        lambda: make_direct_score(SQ, TypeSpace([[0.0], [1e154]])),
        r"the score constant G\(t\) - <d, t> overflows the float range at \[1e\+154\]",
    ),
    (
        "make_scoring_rule",  # G(p) = 1e308 and d[omega] = 1e308
        lambda: make_scoring_rule(MaxAffine([[BIG, BIG]], [0.0]), [[0.5, 0.5]]),
        "payoffs must be finite or -inf, got inf",
    ),
    (
        "make_decision_score",  # G_Q[0, 0] / D_0(Q) = 1e308 / 1e-10
        lambda: make_decision_score(MaxAffine([[BIG, 0.0]], [0.0]), [[1e-10, 1.0 - 1e-10]], [[[1.0], [1.0]]]),
        r"the decision score overflows the float range at \[\[1.0\], \[1.0\]\]",
    ),
    (
        "check_subgradient_selection",
        lambda: check_subgradient_selection(SQ, LinearFamily([[0.0], [1.0]]), HUGE),
        G_OVERFLOW,
    ),
    (
        "check_subgradient_selection-gain",  # type 0 scores 1e308 + 1e308 under report 1
        lambda: check_subgradient_selection(
            IDENTITY, LinearFamily([[1.0], [-1e307]]), TypeSpace([[-10.0], [10.0]])
        ),
        "agent 0 gains inf by report 1: deviation gains must be finite or -inf",
    ),
    (
        "check_wmon_cells",
        lambda: check_wmon_cells([[0.0], [1.0]], LabeledSample([[0.0], [BIG]], [0, 1])),
        r"cmon weights d_i \. \(t_j - t_i\), summed over up to m edges, overflow the float range",
    ),
    (
        "rochet_payments",  # <t_0, d_0> = 0.7 of the range, but einsum forms 1.2 of it first
        lambda: rochet_payments(
            TypeSpace([[1.0, 2.0], [1.0, 1.9999999999]]),
            LinearFamily([[-0.5 * MAX, 0.6 * MAX], [0.0, 0.15 * MAX]]),
        ),
        r"the payoff <t, d> overflows the float range at \[1.0, 2.0\]",
    ),
    (
        "rochet_payments-payment",  # <t_1, d_1> = 0.9 of the range, its surplus -0.5 of it
        lambda: rochet_payments(
            TypeSpace([[1.0, 0.0], [1.0, 1.0]]), LinearFamily([[0.0, -0.5 * MAX], [0.9 * MAX, 0.0]])
        ),
        r"the payment <t, d> - surplus overflows the float range at \[1.0, 1.0\]",
    ),
    (
        "check_expert_separation",  # 1e308 - (-1e308)
        lambda: check_expert_separation(LOW, [[0.5, 0.5]], [0.5, 0.5], BIG, -BIG),
        "the slack of belief 0 overflows the float range",
    ),
    (
        "check_expert_separation-p_bar",  # 1e308 - (-1e308)
        lambda: check_expert_separation(HIGH, [[0.5, 0.5]], [0.5, 0.5], -BIG, -BIG),
        "the slack of p_bar overflows the float range",
    ),
    (
        "check_revenue_equivalence-width",
        lambda: check_revenue_equivalence(TypeSpace([[1.0, 0.0], [0.0, 1.0]]), WIDE),
        r"the surplus interval width overflows the float range at \[0.0, 1.0\]",
    ),
    (
        "StepAllocation",  # inf - inf in the increasing check came first
        lambda: StepAllocation(breakpoints=[0.0, np.inf, np.inf], values=[0.0, 1.0, 2.0]),
        "breakpoints must be finite, got inf",
    ),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_overflow_is_one_value_error(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def test_unused_closed_form_conjugate_does_not_warn():
    # |d/2|^2 of a dual far outside the grid's box overflows, but there the
    # grid value G*(1e308) = 1e308 - 1 is the one used: d = 1e308 meets
    # t = 1 at the grid's edge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eqs = elicitation_game_equilibria(SQ, UNIT, [[0.0], [BIG]], UNIT)
    assert [(e.d_index, e.t_index, e.value_dual) for e in eqs] == [(0, 0, 0.0), (1, 1, BIG - 1.0)]


def test_simplex_sum_beyond_the_float_range_is_off_the_simplex():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not on the probability simplex"):
            eval_convex(NegEntropy(), [BIG, BIG])


def test_a_minus_inf_constant_is_a_score_not_an_overflow():
    table = ScoreTable([0, 1], [[BIG], [1.0]], ["-inf", 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = table.payoff_matrix(TypeSpace([[0.5], [1.0]]))
        assert values.tolist() == [[-np.inf, -np.inf], [0.5, 1.0]]
        # regular: the best report is finite at every type, unless none is
        assert np.isfinite(values.max(axis=0)).all()
        values = ScoreTable([0], [[1.0]], ["-inf"]).payoff_matrix(UNIT)
        assert not np.isfinite(values.max(axis=0)).any()
