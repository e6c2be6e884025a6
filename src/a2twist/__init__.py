"""Exact computational verifier for the level-one twisted module of the
rank-2 root lattice with a diagram involution, its principal subspace, and
the graded-dimension identities that subspace satisfies."""

__version__ = "0.1.0"

from .scalar import ExactMatrix, GaussianRational
from .fock import FockVector, TwistedFock, enumerate_bucket
from .envelope import EnvElement, ModeGen, make_R0
from .analyzer import GradedTable, PrincipalSubspace, graded_dimension, partition_oracle

__all__ = [
    "ExactMatrix",
    "GaussianRational",
    "FockVector",
    "TwistedFock",
    "enumerate_bucket",
    "EnvElement",
    "ModeGen",
    "make_R0",
    "GradedTable",
    "PrincipalSubspace",
    "graded_dimension",
    "partition_oracle",
    "__version__",
]
