"""Exact pair-correlation statistics for quadratic sequences mod 1, with the
supporting congruence, exponential-sum, lattice and interval machinery."""

from .errors import (
    BudgetError,
    CostGuardError,
    EmptyRefinementError,
    PrecisionError,
    QuadpairError,
)
from .exactreal import (
    AlphaSpec,
    FixedReal,
    eval_with_retry,
    fixed_from_decimal,
    parse_alpha,
    q1_part,
    sqrt_fixed,
)
from .paircorr import (
    PairCorrResult,
    SequenceModOne,
    equally_spaced,
    equally_spaced_reference,
    pair_correlation,
    pair_correlation_naive,
    pair_correlation_uv,
    quadratic_sequence,
    sequence_from_points,
    verify_integral_identities,
    weighted_pair_correlation,
)

__all__ = [
    "AlphaSpec",
    "BudgetError",
    "CostGuardError",
    "EmptyRefinementError",
    "FixedReal",
    "PairCorrResult",
    "PrecisionError",
    "QuadpairError",
    "SequenceModOne",
    "equally_spaced",
    "equally_spaced_reference",
    "eval_with_retry",
    "fixed_from_decimal",
    "pair_correlation",
    "pair_correlation_naive",
    "pair_correlation_uv",
    "parse_alpha",
    "q1_part",
    "quadratic_sequence",
    "sequence_from_points",
    "sqrt_fixed",
    "verify_integral_identities",
    "weighted_pair_correlation",
]
