"""The rank-2 root lattice with its order-2 diagram flip, run at period 4.

Houses the bilinear form, the eigenprojections of the isometry, the two
commutator maps and their normalized 2-cocycles.  All phase values are
powers of i and are handled as exponents mod 4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

K = 4  # period of the isometry; twice its order, forced by the evenness condition


class LatticeVector(NamedTuple):
    """m*alpha1 + n*alpha2 with integer coefficients."""

    m: int
    n: int

    def __add__(self, other):
        return LatticeVector(self.m + other.m, self.n + other.n)

    def __sub__(self, other):
        return LatticeVector(self.m - other.m, self.n - other.n)

    def __neg__(self):
        return LatticeVector(-self.m, -self.n)

    def scaled(self, s: int) -> "LatticeVector":
        return LatticeVector(self.m * s, self.n * s)


ALPHA1 = LatticeVector(1, 0)
ALPHA2 = LatticeVector(0, 1)
THETA = LatticeVector(1, 1)  # highest root alpha1 + alpha2
MU = LatticeVector(1, -1)  # alpha1 - alpha2, generator of N = M = R
ZEROV = LatticeVector(0, 0)

_GRAM = ((2, -1), (-1, 2))


def gram(a, b):
    """The Cartan form on lattice vectors, or on their rational span."""
    return (
        _GRAM[0][0] * a.m * b.m
        + _GRAM[0][1] * a.m * b.n
        + _GRAM[1][0] * a.n * b.m
        + _GRAM[1][1] * a.n * b.n
    )


def nu(a: LatticeVector) -> LatticeVector:
    """The diagram involution alpha1 <-> alpha2."""
    return LatticeVector(a.n, a.m)


class RationalHVector(NamedTuple):
    """Rational span of the lattice; closed under the eigenprojections."""

    m: Fraction
    n: Fraction

    @classmethod
    def of(cls, a: LatticeVector) -> "RationalHVector":
        return cls(Fraction(a.m), Fraction(a.n))

    def __add__(self, other):
        return RationalHVector(self.m + other.m, self.n + other.n)


def project(a: RationalHVector, p: int) -> RationalHVector:
    """Projection onto the i**p eigenspace of the isometry.

    The odd eigenspaces vanish for an order-2 isometry, so the two
    surviving projections are (1 +- nu)/2 and the coefficients stay
    rational.
    """
    if p % 2 == 1:
        return RationalHVector(Fraction(0), Fraction(0))
    sign = 1 if p % 4 == 0 else -1
    return RationalHVector((a.m + sign * a.n) / 2, (a.n + sign * a.m) / 2)


def project_lattice(a: LatticeVector, p: int) -> RationalHVector:
    return project(RationalHVector.of(a), p)


# --- commutator maps and cocycles, all as exponents of i ------------------


def commutator_C0_exp(a: LatticeVector, b: LatticeVector) -> int:
    return (2 * gram(a, b)) % 4


def commutator_C_exp(a: LatticeVector, b: LatticeVector) -> int:
    # product over j of (-i^j)^<nu^j a, b>; -i^j = i^(j+2)
    e = 0
    x = a
    for j in range(K):
        e += (j + 2) * gram(x, b)
        x = nu(x)
    return e % 4


def eps0_exp(a: LatticeVector, b: LatticeVector) -> int:
    """The particular bilinear 2-cocycle for the straight extension.

    Determined by its values 1, 1, 1, -1 on the (alpha_i, alpha_j) pairs;
    bilinearity gives (-1)^(n_a * m_b).
    """
    return (2 * a.n * b.m) % 4


def epsC_exp(a: LatticeVector, b: LatticeVector) -> int:
    """Cocycle of the nu-twisted extension, sharing one section with eps0.

    Inverting the set-identification between the two extensions leaves a
    single j = -1 factor at period 4: epsC = (-i)^(-<nu a, b>) * eps0,
    and (-i)^(-x) = i^x.
    """
    return (gram(nu(a), b) + eps0_exp(a, b)) % 4
