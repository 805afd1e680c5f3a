"""Exact deformation quantization and quantum phase-space reduction.

Everything is computed over the Gaussian rationals with a hard truncation
order in the deformation parameter; no floating point anywhere.
"""

from .exact import (
    AlgebraError,
    ContractViolationError,
    ExponentOverflowError,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    TermLimitError,
    VariableMismatchError,
    invert_unipotent,
)
from .phase_space import PhaseSpace, StarProduct, check_star_axioms

__all__ = [
    "AlgebraError",
    "ContractViolationError",
    "ExponentOverflowError",
    "LambdaSeries",
    "MultiPoly",
    "OrderMismatchError",
    "TermLimitError",
    "VariableMismatchError",
    "invert_unipotent",
    "PhaseSpace",
    "StarProduct",
    "check_star_axioms",
]
