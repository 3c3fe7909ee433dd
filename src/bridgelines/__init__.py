"""Non-intersecting Brownian bridge line ensembles: samplers, lattice walks, verification.

The samplers need numpy alone. scipy is imported on the first line of each function that
computes a statistic with it, so a process that only samples never loads it.
"""

from .core import (
    DomainError,
    Interval,
    LatticeParams,
    LineEnsemble,
    RngSeed,
    StructuralError,
    WeylVector,
    check_avoiding,
    read_ensembles,
    write_ensembles,
)

__all__ = [
    "DomainError",
    "Interval",
    "LatticeParams",
    "LineEnsemble",
    "RngSeed",
    "StructuralError",
    "WeylVector",
    "check_avoiding",
    "read_ensembles",
    "write_ensembles",
]
