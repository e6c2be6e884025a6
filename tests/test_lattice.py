from fractions import Fraction

from a2twist.lattice import (
    ALPHA1,
    ALPHA2,
    MU,
    THETA,
    K,
    LatticeVector,
    RationalHVector,
    commutator_C0_exp,
    commutator_C_exp,
    eps0_exp,
    epsC_exp,
    gram,
    nu,
    project,
    project_lattice,
)

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
    # exponents of i: 2 is the sign -1
    assert commutator_C0_exp(ALPHA1, ALPHA2) == 2
    assert commutator_C0_exp(ALPHA1, ALPHA1) == 0
    assert commutator_C0_exp(ALPHA1, THETA) == 2
    assert commutator_C_exp(ALPHA1, ALPHA1) == 0
    assert commutator_C_exp(ALPHA1, ALPHA2) == 2
    assert commutator_C_exp(ALPHA1, -ALPHA1) == 0


def test_commutators_bilinear_alternating_invariant():
    for a in GRID:
        assert commutator_C_exp(a, a) == 0
        assert commutator_C0_exp(a, a) == 0
    for a in GRID[::3]:
        for b in GRID[::3]:
            for c in GRID[::5]:
                assert commutator_C_exp(a + b, c) == (commutator_C_exp(a, c) + commutator_C_exp(b, c)) % 4
                assert commutator_C0_exp(a, b + c) == (commutator_C0_exp(a, b) + commutator_C0_exp(a, c)) % 4
            assert commutator_C_exp(nu(a), nu(b)) == commutator_C_exp(a, b)


def test_evenness_of_twisted_norm():
    for a in GRID:
        total = sum(gram(a if j % 2 == 0 else nu(a), a) for j in range(K))
        assert total % 2 == 0


def test_cocycle_values():
    assert eps0_exp(ALPHA1, ALPHA2) == 0
    assert eps0_exp(ALPHA2, ALPHA1) == 2
    assert eps0_exp(ALPHA1, -ALPHA1) == 0
    assert eps0_exp(ALPHA2, -ALPHA2) == 0
    assert epsC_exp(ALPHA1, ALPHA2) == 2
    assert epsC_exp(ALPHA2, ALPHA1) == 0


def test_cocycle_identity_and_quotients():
    for a in GRID[::2]:
        for b in GRID[::2]:
            assert (eps0_exp(a, b) - eps0_exp(b, a)) % 4 == commutator_C0_exp(a, b)
            assert (epsC_exp(a, b) - epsC_exp(b, a)) % 4 == commutator_C_exp(a, b)
            for c in GRID[::4]:
                lhs = eps0_exp(a, b) + eps0_exp(a + b, c)
                rhs = eps0_exp(b, c) + eps0_exp(a, b + c)
                assert lhs % 4 == rhs % 4


def test_eps0_square_one_and_flip():
    for a in GRID:
        for b in GRID:
            e = eps0_exp(a, b)
            assert (2 * e) % 4 == 0
            assert e == eps0_exp(nu(b), nu(a))
            assert e in (0, 2)


def commutator_CN_exp(a, b):
    # on N the alternating-sign part of C drops out, leaving eta^sum(j <nu^j a, b>)
    return sum(j * gram(a if j % 2 == 0 else nu(a), b) for j in range(K)) % 4


def test_sublattices():
    # N, the orthogonal complement of the fixed eigenspace, is Z*MU; M = (1 - nu)L
    # lies in N and contains MU; C_N is trivial on N, so R = N as well
    n_members = [v for v in GRID if v.m + v.n == 0]
    assert n_members == [MU.scaled(s) for s in range(-3, 4)]
    assert all(commutator_CN_exp(a, b) == 0 for a in n_members for b in n_members)
    images = {v - nu(v) for v in GRID}
    assert all(w.m + w.n == 0 for w in images)
    assert MU in images
    # membership: theta is not orthogonal to the fixed eigenspace
    assert THETA.m + THETA.n != 0
