"""Truthful affine scores from convex functions.

Constructors turn convex functions into proper scoring rules, truthful
payments, and finite-property elicitation schemes; verifiers check the
converse directions (properness, cyclic monotonicity, implementability,
power-diagram structure) on finite desk-scale instances, always
returning a certificate or a concrete counterexample.
"""

from .core import (
    DEFAULT_TOL,
    CheckReport,
    ConvexSpec,
    DimensionMismatchError,
    DomainError,
    ElicitError,
    InconsistentAnchorsError,
    LinearFamily,
    MaxAffine,
    NegEntropy,
    NonPositiveScaleError,
    NotImplementableError,
    NotMonotoneError,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    UnreachableActionError,
    Witness,
    WitnessColumns,
    check_subgradient_selection,
    conjugate,
    eval_convex,
    subgradient,
)
# properties before duality: the other order adds 2.5 MB to perfbench refute's peak RSS (glibc)
from .properties import (
    FitWeightsResult,
    LabeledSample,
    Labeling,
    PowerDiagramSpec,
    bregman_to_power,
    check_level_set_convexity,
    check_wmon_cells,
    fit_weights,
    homothet_transform,
    power_cells,
    score_from_diagram,
)
from .duality import (
    Equilibrium,
    biconjugate,
    check_duality_identities,
    elicitation_game_equilibria,
)
from .monotone import (
    check_cmon,
    check_local_truthful,
    check_wmon,
)
from .payments import (
    PaymentResult,
    RevenueInterval,
    StepAllocation,
    check_revenue_equivalence,
    myerson_payment,
    revenue_interval,
    rochet_payments,
)
from .scoring import (
    DecisionScoreSpec,
    OutcomeScoreTable,
    check_expert_separation,
    check_proper,
    check_truthful,
    make_decision_score,
    make_direct_score,
    make_scoring_rule,
    simplex_grid,
)

# Unused by the package, but loaded with it as before, so that the
# benchmark's tracer of ``lp.feasible_point`` imports no new module.
from . import lp  # noqa: F401

__version__ = "0.1.0"
