"""The abstract twisted nilpotent current algebra on generators u(n) (simple
component, quarter-odd modes) and central z(m) (integer modes), its PBW
enveloping algebra with normal ordering, the truncated quadratic relation
generators, graded pieces of the left relation ideal, the index-shift
automorphism and its companion map, and evaluation into the Fock module.

PBW convention: central part first, then u-modes with creation modes
(negative) leftmost and non-increasing, annihilating modes rightmost.  With
annihilators on the right, a canonical monomial containing a nonnegative
mode lies in the left ideal U.n>=0 generated by nonnegative modes, so
projecting onto the negative-mode subalgebra along it is literally dropping
those monomials, and the projection commutes with left multiplication.
"""

from __future__ import annotations

import bisect
import functools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .fock import FockVector, Report, TwistedFock
from .scalar import GaussianRational, ONE, QuarterInt, SparseVector, i_power

# A PBW monomial is (z modes, u modes), each a tuple of quarter-unit integers.
PBWMonomial = Tuple[Tuple[int, ...], Tuple[int, ...]]

ONE_MONO: PBWMonomial = ((), ())


class ModeGen(NamedTuple):
    label: str  # "u" or "z"
    n: QuarterInt

    @classmethod
    def u(cls, n4: int) -> "ModeGen":
        if n4 % 2 == 0:
            raise ValueError("u modes live on quarter-odd indices")
        return cls("u", QuarterInt(n4))

    @classmethod
    def z(cls, n4: int) -> "ModeGen":
        if n4 % 4:
            raise ValueError("z modes live on integer indices")
        return cls("z", QuarterInt(n4))


def _u_sort_key(n4: int):
    # creation modes first, each group by descending index
    return (0 if n4 < 0 else 1, -n4)


def u_canonical(seq: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sorted(seq, key=_u_sort_key))


def _z_insert(z: Tuple[int, ...], m4: int) -> Tuple[int, ...]:
    return tuple(sorted(z + (m4,), reverse=True))


def bracket_uu_coeff(m4: int, n4: int) -> Optional[Fraction]:
    """[u(m), u(n)] = coeff * z(m + n), None when the bracket vanishes."""
    if (m4 + n4) % 4:
        return None
    return Fraction(-1, 2) if m4 % 4 == 1 else Fraction(1, 2)


def bracket(a: "ModeGen", b: "ModeGen") -> "EnvElement":
    """Lie bracket of two mode generators; the central modes kill every
    bracket, and two simple modes meet in a central mode when their index
    sum is integral."""
    if a.label == "z" or b.label == "z":
        return EnvElement()
    coeff = bracket_uu_coeff(a.n.q, b.n.q)
    if coeff is None:
        return EnvElement()
    return EnvElement.monomial([a.n.q + b.n.q], [], GaussianRational(coeff))


def monomial_charge(mono: PBWMonomial) -> int:
    z, u = mono
    return 2 * len(z) + len(u)


def monomial_qweight4(mono: PBWMonomial) -> int:
    z, u = mono
    return -(sum(z) + sum(u))


def monomial_negative(mono: PBWMonomial) -> bool:
    z, u = mono
    return all(m < 0 for m in z) and all(n < 0 for n in u)


class EnvElement(SparseVector):
    """Finite Q(i)-combination of canonical PBW monomials."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "EnvElement":
        return cls({ONE_MONO: ONE})

    @classmethod
    def monomial(cls, zpart: Sequence[int], upart: Sequence[int], coeff=ONE) -> "EnvElement":
        out = cls()
        out._accumulate_raw(tuple(sorted(zpart, reverse=True)), tuple(upart), coeff)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            z, u = mono
            zs = "".join("z(%s)" % Fraction(m, 4) for m in z)
            us = "".join("u(%s)" % Fraction(n, 4) for n in u)
            bits.append("(%r)%s%s" % (self.terms[mono], zs, us or ("" if zs else "1")))
        return " + ".join(bits)

    # -- normal ordering ---------------------------------------------------

    def _accumulate_raw(self, zpart: Tuple[int, ...], useq: Tuple[int, ...], coeff) -> None:
        """Add coeff * z(zpart) * u(useq) after straightening the u word."""
        stack = [(zpart, useq, coeff)]
        while stack:
            z, u, cf = stack.pop()
            placed = False
            for i in range(len(u) - 1):
                if _u_sort_key(u[i]) > _u_sort_key(u[i + 1]):
                    swapped = u[:i] + (u[i + 1], u[i]) + u[i + 2 :]
                    stack.append((z, swapped, cf))
                    br = bracket_uu_coeff(u[i], u[i + 1])
                    if br is not None:
                        stack.append((z + (u[i] + u[i + 1],), u[:i] + u[i + 2 :], cf * br))
                    placed = True
                    break
            if not placed:
                self.add_term((tuple(sorted(z, reverse=True)), u), cf)

    def right_mul_gen(self, gen: ModeGen) -> "EnvElement":
        out = EnvElement()
        for (z, u), coeff in self.terms.items():
            if gen.label == "z":
                out._accumulate_raw(z + (gen.n.q,), u, coeff)
            else:
                out._accumulate_raw(z, u + (gen.n.q,), coeff)
        return out

    def left_mul_gen(self, gen: ModeGen) -> "EnvElement":
        """gen times self, in closed form on canonical terms."""
        if gen.label == "z":
            return self._left_mul_z(gen.n.q)
        return self._left_mul_u(gen.n.q)

    def _left_mul_z(self, m4: int) -> "EnvElement":
        out = EnvElement()
        for (z, u), coeff in self.terms.items():
            out.add_term((_z_insert(z, m4), u), coeff)
        return out

    def _left_mul_u(self, n4: int) -> "EnvElement":
        """u(n) moves right past the p leading modes a_j that sort before it
        and lands in canonical position; passing each a_j leaves
        [u(n), u(a_j)] times the word without a_j, which is still canonical."""
        out = EnvElement()
        key = _u_sort_key(n4)
        for (z, u), coeff in self.terms.items():
            p = bisect.bisect_left(u, key, key=_u_sort_key)
            out.add_term((z, u[:p] + (n4,) + u[p:]), coeff)
            for j in range(p):
                br = bracket_uu_coeff(n4, u[j])
                if br is not None:
                    out.add_term((_z_insert(z, n4 + u[j]), u[:j] + u[j + 1 :]), coeff * br)
        return out

    def __mul__(self, other: "EnvElement") -> "EnvElement":
        out = EnvElement()
        for (z1, u1), c1 in self.terms.items():
            for (z2, u2), c2 in other.terms.items():
                out._accumulate_raw(z1 + z2, u1 + u2, c1 * c2)
        return out

    # -- gradings and projections -------------------------------------------

    def grade(self) -> Optional[Tuple[int, int]]:
        grades = {(monomial_charge(m), monomial_qweight4(m)) for m in self.terms}
        if len(grades) != 1:
            return None
        return next(iter(grades))

    def project_negative(self) -> "EnvElement":
        """Projection onto the negative-mode subalgebra along the left ideal
        U.n>=0 of nonnegative modes (valid on canonical monomials); it
        commutes with left multiplication."""
        return EnvElement({m: c for m, c in self.terms.items() if monomial_negative(m)})

    # -- structural maps ------------------------------------------------------

    def shift(self, direction: int) -> "EnvElement":
        """The index-shift algebra automorphism (direction +1) or its
        inverse (-1): u(n) -> (-+i) u(n +- 1/2), z(m) -> z(m +- 1)."""
        if direction not in (1, -1):
            raise ValueError("direction must be +-1")
        phase_exp = 3 if direction == 1 else 1  # -i or +i per u factor
        out = EnvElement()
        for (z, u), coeff in self.terms.items():
            cf = coeff * i_power(phase_exp * len(u))
            out._accumulate_raw(
                tuple(m + 4 * direction for m in z),
                tuple(n + 2 * direction for n in u),
                cf,
            )
        return out

    def psi(self) -> "EnvElement":
        """Inverse shift followed by right multiplication by the lowest
        simple-component mode."""
        return self.shift(-1).right_mul_gen(ModeGen.u(-1))

    # -- evaluation into the module ------------------------------------------

    def evaluate(
        self, fock: TwistedFock, table: Optional[Dict[PBWMonomial, FockVector]] = None
    ) -> FockVector:
        """Apply to the vacuum, substituting the component operators for the
        generators.  Each monomial's image is read from table (a fresh one by
        default) through vacuum_image, so a caller that passes one table to
        many elements evaluates each PBW monomial once."""
        if table is None:
            table = {}
        total = FockVector()
        for mono, coeff in self.terms.items():
            for tgt, c in vacuum_image(fock, mono, table).terms.items():
                total.add_term(tgt, c * coeff)
        return total


def vacuum_image(
    fock: TwistedFock, mono: PBWMonomial, table: Dict[PBWMonomial, FockVector]
) -> FockVector:
    """The canonical monomial applied to the vacuum, as table[mono].  Missing
    entries are filled along the chain of suffixes: ev(m) = x.ev(rest), x the
    leftmost factor (z[0] while the central part is non-empty, else u[0]) and
    rest, m without it, still canonical."""
    chain = []
    while mono not in table:
        if mono == ONE_MONO:
            table[mono] = fock.vacuum()
            break
        chain.append(mono)
        z, u = mono
        mono = (z[1:], u) if z else ((), u[1:])
    v = table[mono]
    for m in reversed(chain):
        z, u = m
        if v.terms:
            v = fock.apply("a12", z[0], v) if z else fock.apply("a1", u[0], v)
        table[m] = v
    return v


# --- truncated quadratic generators ------------------------------------------

R1 = "uu"
R12 = "zz"
R121 = "zu"


def admissible_t4(kind: str, t4: int) -> bool:
    if kind == R1:
        return t4 % 2 == 0 and t4 >= 2
    if kind == R12:
        return t4 % 4 == 0 and t4 >= 8
    if kind == R121:
        return t4 % 2 == 1 and t4 >= 5
    raise ValueError(kind)


def make_R0(kind: str, t4: int) -> EnvElement:
    """Truncated degree-t relation sums, all explicit indices negative."""
    if not admissible_t4(kind, t4):
        raise ValueError("inadmissible truncation degree %s for %s" % (Fraction(t4, 4), kind))
    out = EnvElement()
    if kind == R1:
        for a4 in range(-1, -t4 - 2, -2):
            b4 = -t4 - 2 - a4
            if b4 > -1:
                continue
            out._accumulate_raw((), (a4 + 2, b4), ONE)
            out._accumulate_raw((), (a4, b4 + 2), ONE)
    elif kind == R12:
        for m4 in range(-4, -t4 - 1, -4):
            n4 = -t4 - m4
            if n4 > -4:
                continue
            out._accumulate_raw((m4, n4), (), ONE)
    else:
        for m4 in range(-4, -t4 - 1, -4):
            n4 = -t4 - m4
            if n4 > -1 or n4 % 2 == 0:
                continue
            out._accumulate_raw((m4,), (n4,), ONE)
    return out


def _generator_keys(max_qweight4: int) -> List[Tuple[str, int]]:
    return (
        [(R1, t4) for t4 in range(2, max_qweight4 + 1, 2)]
        + [(R12, t4) for t4 in range(8, max_qweight4 + 1, 4)]
        + [(R121, t4) for t4 in range(5, max_qweight4 + 1, 2)]
    )


def generator_list(max_qweight4: int) -> List[Tuple[str, int, EnvElement]]:
    """All ideal generators of quarter-weight at most the bound."""
    return [(kind, t4, make_R0(kind, t4)) for kind, t4 in _generator_keys(max_qweight4)]


@functools.lru_cache(maxsize=None)
def _u_weight_multisets(total4: int, count: int, max4: int) -> Tuple[Tuple[int, ...], ...]:
    """Multisets of count odd positive quarter-weights summing to total4,
    descending, each <= max4."""
    if count == 0:
        return ((),) if total4 == 0 else ()
    out = []
    top = min(max4, total4 - (count - 1))
    if top % 2 == 0:
        top -= 1
    w = top
    while w >= 1:
        for rest in _u_weight_multisets(total4 - w, count - 1, w):
            out.append((w,) + rest)
        w -= 2
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _z_weight_multisets(total4: int, count: int, max4: int) -> Tuple[Tuple[int, ...], ...]:
    if count == 0:
        return ((),) if total4 == 0 else ()
    out = []
    top = min(max4, total4 - 4 * (count - 1))
    top -= top % 4
    w = top
    while w >= 4:
        for rest in _z_weight_multisets(total4 - w, count - 1, w):
            out.append((w,) + rest)
        w -= 4
    return tuple(out)


def pbw_monomials(charge: int, qweight4: int) -> List[PBWMonomial]:
    """Canonical negative-mode PBW monomials of the given grade."""
    out = []
    for r in range(charge // 2 + 1):
        s = charge - 2 * r
        for zq in range(0, qweight4 + 1):
            uq = qweight4 - zq
            for zw in _z_weight_multisets(zq, r, zq if zq else 4):
                zpart = tuple(sorted((-w for w in zw), reverse=True))
                for uw in _u_weight_multisets(uq, s, uq if uq else 1):
                    out.append((zpart, u_canonical([-w for w in uw])))
    return sorted(out)


class IdealSlice:
    """Graded pieces of the relation ideal, projected onto the negative-mode
    subalgebra along the left ideal U.n>=0 of nonnegative modes.

    Spanning vectors are left PBW multiples of the projected dressed
    generators: dressing means pre-multiplying a generator by nonnegative
    simple modes (only as many as the generator has simple factors; the
    central factor contributes nothing after projection) and projecting.
    The dressing mode is explored up to the generator's quarter-weight plus
    a configurable slack, which the tests widen to confirm saturation.

    Each generator is dressed once, and each PBW monomial list read once;
    both are kept for the life of the slice.
    """

    def __init__(self, slack4: int = 0):
        self.slack4 = slack4
        # (kind, t4) -> [(dressed generator, its grade)]
        self._dressed: Dict[Tuple[str, int], List[Tuple[EnvElement, Tuple[int, int]]]] = {}
        self._monomials: Dict[Tuple[int, int], Tuple[PBWMonomial, ...]] = {}

    def _dress(self, kind: str, t4: int) -> List[Tuple[EnvElement, Tuple[int, int]]]:
        hit = self._dressed.get((kind, t4))
        if hit is not None:
            return hit
        gen = make_R0(kind, t4)
        n_u = 2 if kind == R1 else (1 if kind == R121 else 0)
        bound = t4 + self.slack4
        dressings = [()]
        if n_u >= 1:
            dressings += [(a,) for a in range(1, bound + 1, 2)]
        if n_u >= 2:
            dressings += [
                (a, b)
                for a in range(1, bound + 1, 2)
                for b in range(a, bound + 1, 2)
            ]
        out = []
        for dress in dressings:
            elt = gen
            for a4 in dress:
                elt = elt._left_mul_u(a4)
            proj = elt.project_negative()
            if not proj.is_zero():
                out.append((proj, proj.grade()))
        self._dressed[(kind, t4)] = out
        return out

    def dressed_generators(self, max_qweight4: int) -> List[EnvElement]:
        return [h for kind, t4 in _generator_keys(max_qweight4) for h, _ in self._dress(kind, t4)]

    def _pbw_monomials(self, charge: int, qweight4: int) -> Tuple[PBWMonomial, ...]:
        hit = self._monomials.get((charge, qweight4))
        if hit is None:
            hit = self._monomials[(charge, qweight4)] = tuple(pbw_monomials(charge, qweight4))
        return hit

    def bucket_span(self, charge: int, qweight4: int) -> List[EnvElement]:
        """Spanning set of the ideal's projection in one graded piece: each
        dressed generator h times the PBW monomials of the missing grade.
        h has negative modes only, and so has its product with negative
        modes: the projection, which commutes with left multiplication, is
        not taken again."""
        out = []
        for kind, t4 in _generator_keys(qweight4):
            for h, (gk, gq) in self._dress(kind, t4):
                dk, dq = charge - gk, qweight4 - gq
                if dk < 0 or dq < dk:  # each creation generator costs at least 1 quarter
                    continue
                for z, u in self._pbw_monomials(dk, dq):
                    elt = h
                    for n4 in reversed(u):
                        elt = elt._left_mul_u(n4)
                    for m4 in reversed(z):
                        elt = elt._left_mul_z(m4)
                    if not elt.is_zero():
                        out.append(elt)
        return out


# --- symbolic stability of the ideal under the shift maps ---------------------


def _is_positive_part(elt: EnvElement) -> bool:
    return elt.project_negative().is_zero()


def _match_constant(diff: EnvElement, target: EnvElement):
    """Solve diff = const * target modulo nonnegative-mode terms; returns the
    constant or None."""
    d = diff.project_negative()
    t = target.project_negative()
    if t.is_zero():
        return None
    mono, coeff = next(iter(sorted(t.terms.items())))
    lead = d.terms.get(mono)
    if lead is None:
        return None
    const = lead * coeff.inverse()
    if d == t.scale(const):
        return const
    return None


def check_ideal_stability(t4_max: int = 24) -> Report:
    """Shift images of the truncated generators land back in the ideal, and
    the companion-map images decompose against the ideal generators with
    solved nonzero constants."""
    rep = Report("ideal-stability")
    theta1 = i_power(3)  # character value on the first simple vector
    solved_b = {}
    solved_d = {}
    for t4 in range(2, t4_max + 1, 2):
        g = make_R0(R1, t4)
        img = g.shift(1)
        if t4 in (2, 4):
            rep.record(_is_positive_part(img), {"identity": "shift-boundary", "kind": R1, "t4": t4})
        else:
            resid = img - make_R0(R1, t4 - 4).scale(theta1 * theta1)
            rep.record(_is_positive_part(resid), {"identity": "shift-descent", "kind": R1, "t4": t4})
    for t4 in range(8, t4_max + 1, 4):
        g = make_R0(R12, t4)
        img = g.shift(1)
        if t4 in (8, 12):
            rep.record(_is_positive_part(img), {"identity": "shift-boundary", "kind": R12, "t4": t4})
        else:
            resid = img - make_R0(R12, t4 - 8)
            rep.record(_is_positive_part(resid), {"identity": "shift-descent", "kind": R12, "t4": t4})
    for t4 in range(5, t4_max + 1, 2):
        g = make_R0(R121, t4)
        img = g.shift(1)
        if t4 <= 9:
            rep.record(_is_positive_part(img), {"identity": "shift-boundary", "kind": R121, "t4": t4})
        else:
            resid = img - make_R0(R121, t4 - 6).scale(theta1)
            rep.record(_is_positive_part(resid), {"identity": "shift-descent", "kind": R121, "t4": t4})
    # Companion map: psi(shift(a)) = a * u(-1/4) exactly, so the residual
    # content is the decomposition of g*u(-1/4) - u(-1/4)*g against the
    # generator one quarter up.
    u_low = ModeGen.u(-1)
    for t4 in range(2, t4_max + 1, 2):
        g = make_R0(R1, t4)
        rep.record(
            g.shift(1).psi() == g.right_mul_gen(u_low),
            {"identity": "companion-exactness", "kind": R1, "t4": t4},
        )
        diff = g.right_mul_gen(u_low) - g.left_mul_gen(u_low)
        if t4 + 1 < 5:
            rep.record(_is_positive_part(diff), {"identity": "companion-low", "kind": R1, "t4": t4})
            continue
        const = _match_constant(diff, make_R0(R121, t4 + 1))
        ok = const is not None and not const.is_zero()
        if ok:
            solved_b[str(Fraction(t4, 4))] = const.as_strings()
        rep.record(ok, {"identity": "companion-decomposition", "kind": R1, "t4": t4})
    for t4 in range(8, t4_max + 1, 4):
        g = make_R0(R12, t4)
        diff = g.right_mul_gen(u_low) - g.left_mul_gen(u_low)
        rep.record(diff.is_zero(), {"identity": "companion-central", "kind": R12, "t4": t4})
    for t4 in range(5, t4_max + 1, 2):
        g = make_R0(R121, t4)
        diff = g.right_mul_gen(u_low) - g.left_mul_gen(u_low)
        if t4 + 1 < 8 or (t4 + 1) % 4:
            rep.record(diff.is_zero(), {"identity": "companion-low", "kind": R121, "t4": t4})
            continue
        const = _match_constant(diff, make_R0(R12, t4 + 1))
        ok = const is not None and not const.is_zero()
        if ok:
            solved_d[str(Fraction(t4, 4))] = const.as_strings()
        rep.record(ok, {"identity": "companion-decomposition", "kind": R121, "t4": t4})
    rep.details["solved_b"] = solved_b
    rep.details["solved_d"] = solved_d
    return rep
