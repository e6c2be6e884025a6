"""Exact computational verifier for the level-one twisted module of the
rank-2 root lattice with a diagram involution, its principal subspace, and
the graded-dimension identities that subspace satisfies."""

__version__ = "0.1.0"

from .scalar import ExactMatrix, GaussianRational
from .fock import FockVector, TwistedFock, enumerate_bucket
from .envelope import EnvElement, make_R0
from .analyzer import PrincipalSubspace, partition_oracle

__all__ = [
    "ExactMatrix",
    "GaussianRational",
    "FockVector",
    "TwistedFock",
    "enumerate_bucket",
    "EnvElement",
    "make_R0",
    "PrincipalSubspace",
    "partition_oracle",
    "__version__",
]
