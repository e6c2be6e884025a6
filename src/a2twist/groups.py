"""The two central extensions of the lattice, the lifted involution, the
character of the degenerate-sublattice subgroup, and the coset module it
induces.

Section elements are (phase exponent mod 4, lattice vector, extension tag);
all multiplication phases are powers of i, so group arithmetic is additive
on exponents.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from .lattice import (
    ALPHA1,
    K,
    MU,
    THETA,
    LatticeVector,
    ZEROV,
    eps0_exp,
    epsC_exp,
    gram,
    nu,
)
from .report import Report
from .scalar import GaussianRational, i_power

HAT_L = "hatL"
HAT_LNU = "hatLnu"

_COCYCLE = {HAT_L: eps0_exp, HAT_LNU: epsC_exp}


class ExtElement(NamedTuple):
    phase: int  # exponent of i, mod 4
    vec: LatticeVector
    ext: str

    def scalar(self) -> GaussianRational:
        return i_power(self.phase)


def section(vec: LatticeVector, ext: str = HAT_LNU) -> ExtElement:
    return ExtElement(0, vec, ext)


def ext_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    if a.ext != b.ext:
        raise ValueError("cannot multiply across extension tags")
    eps = _COCYCLE[a.ext]
    return ExtElement((a.phase + b.phase + eps(a.vec, b.vec)) % 4, a.vec + b.vec, a.ext)


def ext_inv(a: ExtElement) -> ExtElement:
    eps = _COCYCLE[a.ext]
    return ExtElement((-a.phase - eps(a.vec, -a.vec)) % 4, -a.vec, a.ext)


def ext_identity(ext: str) -> ExtElement:
    return ExtElement(0, ZEROV, ext)


def ext_commutator(a: ExtElement, b: ExtElement) -> GaussianRational:
    c = ext_mul(ext_mul(a, b), ext_mul(ext_inv(a), ext_inv(b)))
    if c.vec != ZEROV:
        raise AssertionError("commutator did not land in the center")
    return c.scalar()


def nu_hat(a: ExtElement) -> ExtElement:
    """The chosen lift of the involution; an automorphism of both extensions.

    On section elements: e_alpha -> eps0(alpha, alpha) * i^<alpha, theta> * e_(nu alpha).
    Its square is the global -1 on section elements, so the lift has
    exact order 4.
    """
    e = (a.phase + eps0_exp(a.vec, a.vec) + gram(a.vec, THETA)) % 4
    return ExtElement(e, nu(a.vec), a.ext)


class TauTable:
    """The unique character of the pulled-back degenerate sublattice group.

    Fixed by sending the central i to i and by its value on elements
    a*nuhat(a)^-1; the generator value is solved from that relation at
    construction time (it depends on the cocycle convention, so it is
    never hard-coded).
    """

    def __init__(self):
        a = section(ALPHA1, HAT_LNU)
        g = ext_mul(a, ext_inv(nu_hat(a)))
        if g.vec != MU:
            raise AssertionError("defining element does not project onto the generator")
        total = sum(gram(_nu_pow(ALPHA1, j), ALPHA1) for j in range(K))
        if total % 2:
            raise AssertionError("evenness condition violated")
        rhs = (-total // 2) % 4
        self._gen_exp = (rhs - g.phase) % 4
        self._exps: Dict[int, int] = {0: 0, 1: self._gen_exp}
        # value on e_{-mu}: from e_mu * e_{-mu} = epsC(mu, -mu) * identity
        self._minus_gen_exp = (epsC_exp(MU, -MU) - self._gen_exp) % 4

    def exp_on_multiple(self, s: int) -> int:
        """Exponent of tau on the section element over s*(alpha1-alpha2)."""
        cached = self._exps.get(s)
        if cached is not None:
            return cached
        if s > 0:
            prev = self.exp_on_multiple(s - 1)
            e = (self._gen_exp + prev - epsC_exp(MU, MU.scaled(s - 1))) % 4
        else:
            prev = self.exp_on_multiple(s + 1)
            e = (self._minus_gen_exp + prev - epsC_exp(-MU, MU.scaled(s + 1))) % 4
        self._exps[s] = e
        return e

    def value(self, a: ExtElement) -> GaussianRational:
        if a.ext != HAT_LNU:
            raise ValueError("tau lives on the twisted extension")
        if not (a.vec.m + a.vec.n == 0):
            raise ValueError("element does not lie over the degenerate sublattice")
        return i_power((a.phase + self.exp_on_multiple(a.vec.m)) % 4)


def _nu_pow(v: LatticeVector, j: int) -> LatticeVector:
    return v if j % 2 == 0 else nu(v)


class CosetModel:
    """The induced module of the twisted extension on the coset space.

    Canonical representatives are c*alpha1; reduction peels off the
    degenerate part through the cocycle and absorbs it with tau.  A basis
    vector is just its integer charge c; weight is c^2/4.
    """

    def __init__(self, tau: TauTable):
        self.tau = tau

    def reduce(self, phase: int, vec: LatticeVector):
        """Rewrite the vector over e_vec as (scalar, canonical charge)."""
        c = vec.m + vec.n
        s = -vec.n  # vec - c*alpha1 = s*(alpha1 - alpha2)
        e = (
            phase
            - epsC_exp(ALPHA1.scaled(c), MU.scaled(s))
            + self.tau.exp_on_multiple(s)
        ) % 4
        return i_power(e), c

    def act(self, a: ExtElement, v: Dict[int, GaussianRational]) -> Dict[int, GaussianRational]:
        if a.ext != HAT_LNU:
            raise ValueError("only the twisted extension acts on the coset module")
        out: Dict[int, GaussianRational] = {}
        for c, coeff in v.items():
            scalar, c2 = self.act_on_charge(a, c)
            val = out.get(c2)
            new = coeff * scalar if val is None else val + coeff * scalar
            if new.is_zero():
                out.pop(c2, None)
            else:
                out[c2] = new
        return out

    def act_on_charge(self, a: ExtElement, c: int):
        """Single coset image: returns (scalar, new charge)."""
        prod = ext_mul(a, section(ALPHA1.scaled(c), HAT_LNU))
        return self.reduce(prod.phase, prod.vec)

    @staticmethod
    def charge_eigenvalue(h: LatticeVector, c: int) -> int:
        """Diagonal action of a fixed-eigenspace lattice element."""
        return gram(h, ALPHA1.scaled(c))


def group_invariant_report() -> Report:
    """Grid verification of the group layer: cocycle identities, group
    axioms, commutator recovery, the lifted involution's order and square,
    its automorphism property for both multiplications, the character's
    defining relations and factorization independence, and the coset
    action being a group action."""
    from .lattice import commutator_C0_exp, commutator_C_exp

    rep = Report("group-layer")
    grid = [LatticeVector(m, n) for m in range(-2, 3) for n in range(-2, 3)]
    tau = TauTable()
    coset = CosetModel(tau)
    for ext, commutator_exp in ((HAT_L, commutator_C0_exp), (HAT_LNU, commutator_C_exp)):
        eps = _COCYCLE[ext]
        for a in grid:
            for b in grid:
                # automorphism of the extension
                x, y = section(a, ext), section(b, ext)
                rep.record(
                    nu_hat(ext_mul(x, y)) == ext_mul(nu_hat(x), nu_hat(y)),
                    {"check": "lift-automorphism", "ext": ext, "a": tuple(a), "b": tuple(b)},
                )
                # commutator map recovery
                rep.record(
                    ext_commutator(x, y) == i_power(commutator_exp(a, b)),
                    {"check": "commutator-recovery", "ext": ext, "a": tuple(a), "b": tuple(b)},
                )
                for c in grid:
                    ok = (eps(a, b) + eps(a + b, c)) % 4 == (eps(b, c) + eps(a, b + c)) % 4
                    rep.record(ok, {"check": "cocycle-identity", "ext": ext})
        # associativity on phase-decorated elements
        for a in grid[:10]:
            for b in grid[10:20]:
                for c in grid[5:15]:
                    x = ExtElement(1, a, ext)
                    y = ExtElement(2, b, ext)
                    z = ExtElement(3, c, ext)
                    rep.record(
                        ext_mul(ext_mul(x, y), z) == ext_mul(x, ext_mul(y, z)),
                        {"check": "associativity", "ext": ext},
                    )
        for a in grid:
            x = ExtElement(1, a, ext)
            rep.record(
                ext_mul(x, ext_inv(x)) == ext_identity(ext)._replace(ext=ext),
                {"check": "inverses", "ext": ext},
            )
            # The square of the lift is the charge-parity sign: -1 exactly on
            # odd-charge sections (in particular on both simple roots), +1 on
            # even charge, as forced by the lift fixing the highest-root
            # section.  The lift has exact order 4.
            y = section(a, ext)
            sq = nu_hat(nu_hat(y))
            want_phase = (2 * gram(THETA, a)) % 4
            rep.record(
                sq == ExtElement(want_phase, a, ext),
                {"check": "lift-square-parity-sign", "a": tuple(a)},
            )
            rep.record(nu_hat(nu_hat(sq)) == y, {"check": "lift-order-four", "a": tuple(a)})
        for a in (ALPHA1, nu(ALPHA1)):
            y = section(a, ext)
            rep.record(
                nu_hat(nu_hat(y)) == ExtElement(2, a, ext),
                {"check": "lift-square-is-minus-on-roots", "a": tuple(a)},
            )
    # character: defining relation on the grid
    for a in grid:
        x = section(a, HAT_LNU)
        g = ext_mul(x, ext_inv(nu_hat(x)))
        total = sum(gram(_nu_pow(a, j), a) for j in range(K))
        rep.record(
            tau.value(g) == i_power((-total // 2) % 4),
            {"check": "character-defining-relation", "a": tuple(a)},
        )
    # character: factorization independence for small multiples
    for s in range(-3, 4):
        target = tau.value(section(MU.scaled(s), HAT_LNU))
        for split in range(-3, 4):
            x = section(MU.scaled(split), HAT_LNU)
            y = section(MU.scaled(s - split), HAT_LNU)
            prod = ext_mul(x, y)
            rep.record(
                tau.value(x) * tau.value(y) == tau.value(prod),
                {"check": "character-multiplicative", "s": s, "split": split},
            )
    # coset action is a group action
    for a in grid[:12]:
        for b in grid[12:]:
            x = ExtElement(1, a, HAT_LNU)
            y = ExtElement(0, b, HAT_LNU)
            for c in (-1, 0, 2):
                v = {c: i_power(0)}
                lhs = coset.act(ext_mul(x, y), v)
                rhs = coset.act(x, coset.act(y, v))
                rep.record(lhs == rhs, {"check": "coset-action", "a": tuple(a), "b": tuple(b)})
    # charge grading
    for c in range(-3, 4):
        rep.record(
            CosetModel.charge_eigenvalue(THETA, c) == c,
            {"check": "charge-eigenvalue", "c": c},
        )
    return rep
