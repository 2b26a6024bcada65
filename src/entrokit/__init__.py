"""Entropy toolkit for stabilizer and Gaussian quantum states.

Computes exact entropy vectors of stabilizer states from their phase-space
subgroup description, cross-checks them against a dense Hilbert-space oracle
and the discrete Wigner function, verifies balanced information inequalities
by exact big-integer arithmetic, and implements the Gaussian Renyi-entropy
formulas with a Monte-Carlo oracle and an Ingleton-violation search.
"""

from .phasespace import PhaseSpace
from .stabilizer import (
    CLASSICAL,
    QUANTUM,
    EntropyVector,
    StabilizerState,
    entropy_vector,
    enumerate_isotropic,
    order_identity_check,
)
from .zmod import Subgroup

__all__ = [
    "CLASSICAL",
    "QUANTUM",
    "EntropyVector",
    "PhaseSpace",
    "StabilizerState",
    "Subgroup",
    "entropy_vector",
    "enumerate_isotropic",
    "order_identity_check",
]

__version__ = "0.1.0"
