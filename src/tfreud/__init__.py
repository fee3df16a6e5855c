"""High-precision orthogonal polynomials for the truncated quartic
exponential weight exp(-z*x^4) on the positive half line."""
from __future__ import annotations

from .kernel import (
    ConvergenceError,
    DomainError,
    PrecisionContext,
    PrecisionExhaustionError,
    default_bits,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "PrecisionContext",
    "PrecisionExhaustionError",
    "default_bits",
    "__version__",
]
