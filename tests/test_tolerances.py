"""Every public function that takes a tolerance rejects one that is not
positive and finite: against nan or inf no comparison fails, so a
verifier given one would pass any input.  The same holds for the radius
of check_local_truthful."""

import math

import numpy as np
import pytest

from elicit import (
    LabeledSample,
    LinearFamily,
    OutcomeScoreTable,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    check_cmon,
    check_duality_identities,
    check_expert_separation,
    check_local_truthful,
    check_proper,
    check_revenue_equivalence,
    check_subgradient_selection,
    check_truthful,
    check_wmon,
    check_wmon_cells,
    fit_weights,
    make_decision_score,
    revenue_interval,
    rochet_payments,
)
from elicit.monotone import cmon_weights, longest_paths

# a family and an affine score that fail their checks at the default tolerance
TS = TypeSpace([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
BAD_FAMILY = LinearFamily([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
BAD_SCORE = ScoreTable(
    reports=[0, 1, 2], linear=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], constant=[0.0, 0.0, 0.0]
)
GOOD_FAMILY = LinearFamily(2.0 * TS.points)
TABLE = OutcomeScoreTable(
    reports=[[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
    payoffs=[[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
)
SITES = np.array([[0.0, 3.0], [3.0, 1.0], [1.0, -3.0]])
SAMPLE = LabeledSample(points=[[2.0, 4.0], [-3.0, -2.0], [1.0, -2.0]], labels=[1, 0, 2])

CALLS = {
    "check_wmon": lambda tol: check_wmon(TS, BAD_FAMILY, tol=tol),
    "check_cmon": lambda tol: check_cmon(TS, BAD_FAMILY, tol=tol),
    "check_truthful": lambda tol: check_truthful(BAD_SCORE, TS, tol=tol),
    "check_local_truthful": lambda tol: check_local_truthful(
        BAD_SCORE, TS, [0, 1, 2], radius=2.0, tol=tol
    ),
    "check_subgradient_selection": lambda tol: check_subgradient_selection(
        SquaredNorm(), BAD_FAMILY, TS, tol=tol
    ),
    "check_duality_identities": lambda tol: check_duality_identities(
        SquaredNorm(), TS, [[0.5, 0.5]], tol=tol
    ),
    "longest_paths": lambda tol: longest_paths(cmon_weights(TS, BAD_FAMILY), tol=tol),
    "rochet_payments": lambda tol: rochet_payments(TS, GOOD_FAMILY, tol=tol),
    "revenue_interval": lambda tol: revenue_interval(TS, GOOD_FAMILY, {0: 0.0}, 1, tol=tol),
    "check_revenue_equivalence": lambda tol: check_revenue_equivalence(
        TS, GOOD_FAMILY, tol=tol
    ),
    "fit_weights": lambda tol: fit_weights(SITES, SAMPLE, tol=tol),
    "check_wmon_cells": lambda tol: check_wmon_cells(SITES, SAMPLE, tol=tol),
    "check_proper": lambda tol: check_proper(TABLE, tol=tol),
    "check_expert_separation": lambda tol: check_expert_separation(
        TABLE, [[1.0, 0.0]], [0.5, 0.5], 2.0, 0.0, tol=tol
    ),
    "make_decision_score": lambda tol: make_decision_score(
        SquaredNorm(), [[0.5, 0.5]], [[[0.5, 0.5], [0.5, 0.5]]], tol=tol
    ),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_tolerance_that_is_not_positive_and_finite_is_rejected(name, tol):
    with pytest.raises(ValueError, match=f"tolerance must be positive and finite, got {tol}"):
        CALLS[name](tol)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_default_tolerance_is_accepted(name):
    CALLS[name](1e-9)


@pytest.mark.parametrize("check", [check_wmon, check_cmon])
def test_the_family_checks_fail_at_the_default_tolerance(check):
    assert not check(TS, BAD_FAMILY).passed


def test_the_truthfulness_checks_fail_at_the_default_tolerance():
    assert not check_truthful(BAD_SCORE, TS).passed
    assert not check_local_truthful(BAD_SCORE, TS, [0, 1, 2], radius=2.0).passed


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
def test_a_radius_that_is_not_positive_and_finite_is_rejected(radius):
    with pytest.raises(ValueError, match=f"radius must be positive and finite, got {radius}"):
        check_local_truthful(BAD_SCORE, TS, [0, 1, 2], radius=radius)

