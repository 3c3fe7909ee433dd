"""Non-intersecting Brownian bridge line ensembles: samplers, lattice walks, verification."""

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
