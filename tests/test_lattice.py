from fractions import Fraction

from a2twist.lattice import (
    ALPHA1,
    ALPHA2,
    MU,
    THETA,
    K,
    LatticeVector,
    RationalHVector,
    commutator_C,
    commutator_C0,
    cocycle_eps0,
    cocycle_epsC,
    eps0_exp,
    gram,
    nu,
    project,
    project_lattice,
    sublattices_NMR,
)
from a2twist.scalar import GaussianRational, ONE

GRID = [LatticeVector(m, n) for m in range(-3, 4) for n in range(-3, 4)]


def test_gram_cartan_values():
    assert gram(ALPHA1, ALPHA1) == 2
    assert gram(ALPHA2, ALPHA2) == 2
    assert gram(ALPHA1, ALPHA2) == -1
    assert gram(THETA, THETA) == 2


def test_gram_bilinear_symmetric():
    for a in GRID[:20]:
        for b in GRID[20:]:
            assert gram(a, b) == gram(b, a)
            assert gram(a + b, b) == gram(a, b) + gram(b, b)


def test_isometry():
    assert nu(ALPHA1) == ALPHA2
    assert nu(nu(ALPHA1)) == ALPHA1
    for a in GRID:
        for b in GRID:
            assert gram(nu(a), nu(b)) == gram(a, b)


def test_projection_values():
    half = Fraction(1, 2)
    assert project_lattice(ALPHA1, 0) == RationalHVector(half, half)
    assert project_lattice(ALPHA1, 2) == RationalHVector(half, -half)
    assert project_lattice(ALPHA1, 1) == RationalHVector(0, 0)
    assert project_lattice(ALPHA2, 3) == RationalHVector(0, 0)


def test_projections_resolve_identity():
    for a in GRID:
        v = RationalHVector.of(a)
        p0 = project(v, 0)
        p2 = project(v, 2)
        assert p0 + p2 == v
        assert project(p0, 0) == p0  # idempotent
        assert project(p0, 2) == RationalHVector(0, 0)  # orthogonal images
        assert gram(p0, p2) == 0


def test_commutator_values():
    assert commutator_C0(ALPHA1, ALPHA2) == GaussianRational(-1)
    assert commutator_C0(ALPHA1, ALPHA1) == ONE
    assert commutator_C0(ALPHA1, THETA) == GaussianRational(-1)
    assert commutator_C(ALPHA1, ALPHA1) == ONE
    assert commutator_C(ALPHA1, ALPHA2) == GaussianRational(-1)
    assert commutator_C(ALPHA1, -ALPHA1) == ONE


def test_commutators_bilinear_alternating_invariant():
    for a in GRID:
        assert commutator_C(a, a) == ONE
        assert commutator_C0(a, a) == ONE
    for a in GRID[::3]:
        for b in GRID[::3]:
            for c in GRID[::5]:
                assert commutator_C(a + b, c) == commutator_C(a, c) * commutator_C(b, c)
                assert commutator_C0(a, b + c) == commutator_C0(a, b) * commutator_C0(a, c)
            assert commutator_C(nu(a), nu(b)) == commutator_C(a, b)


def test_evenness_of_twisted_norm():
    for a in GRID:
        total = sum(gram(a if j % 2 == 0 else nu(a), a) for j in range(K))
        assert total % 2 == 0


def test_cocycle_values():
    assert cocycle_eps0(ALPHA1, ALPHA2) == ONE
    assert cocycle_eps0(ALPHA2, ALPHA1) == GaussianRational(-1)
    assert cocycle_eps0(ALPHA1, -ALPHA1) == ONE
    assert cocycle_eps0(ALPHA2, -ALPHA2) == ONE
    assert cocycle_epsC(ALPHA1, ALPHA2) == GaussianRational(-1)
    assert cocycle_epsC(ALPHA2, ALPHA1) == ONE


def test_cocycle_identity_and_quotients():
    for a in GRID[::2]:
        for b in GRID[::2]:
            assert cocycle_eps0(a, b) * cocycle_eps0(b, a).inverse() == commutator_C0(a, b)
            assert cocycle_epsC(a, b) * cocycle_epsC(b, a).inverse() == commutator_C(a, b)
            for c in GRID[::4]:
                lhs = cocycle_eps0(a, b) * cocycle_eps0(a + b, c)
                rhs = cocycle_eps0(b, c) * cocycle_eps0(a, b + c)
                assert lhs == rhs


def test_eps0_square_one_and_flip():
    for a in GRID:
        for b in GRID:
            v = cocycle_eps0(a, b)
            assert v * v == ONE
            assert v == cocycle_eps0(nu(b), nu(a))
            assert eps0_exp(a, b) in (0, 2)


def test_sublattices():
    report = sublattices_NMR()
    assert report["generator"] == MU
    assert report["N_equals_M_equals_R"]
    assert report["C_N_trivial"]
    # membership: theta is not orthogonal to the fixed eigenspace
    assert THETA.m + THETA.n != 0
    assert (MU.scaled(-2)).m + (MU.scaled(-2)).n == 0
