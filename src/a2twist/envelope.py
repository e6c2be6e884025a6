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

import functools
import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .fock import FockVector, TwistedFock
from .report import Report
from .scalar import LazyTable, ONE, SparseVector, i_power
from .suites import GENERATORS, R1, R12, R121, _quadratic_sums

# A PBW monomial is (z modes, u modes), each a tuple of quarter-unit integers.
PBWMonomial = Tuple[Tuple[int, ...], Tuple[int, ...]]

ONE_MONO: PBWMonomial = ((), ())


def _u_sort_key(n4: int) -> int:
    # creation modes first, each group by descending index
    return -n4 if n4 < 0 else (1 << 30) - n4


def u_canonical(seq: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sorted(seq, key=_u_sort_key))


_HALF, _MINUS_HALF = Fraction(1, 2), Fraction(-1, 2)


def bracket_uu_coeff(m4: int, n4: int) -> Optional[Fraction]:
    """[u(m), u(n)] = coeff * z(m + n), None when the bracket vanishes."""
    if (m4 + n4) % 4:
        return None
    return _MINUS_HALF if m4 % 4 == 1 else _HALF


def monomial_charge(mono: PBWMonomial) -> int:
    z, u = mono
    return 2 * len(z) + len(u)


def monomial_qweight4(mono: PBWMonomial) -> int:
    z, u = mono
    return -(sum(z) + sum(u))


def monomial_negative(mono: PBWMonomial) -> bool:
    z, u = mono
    return all(m < 0 for m in z) and all(n < 0 for n in u)


def _right_step(terms: Dict, a: int) -> Dict:
    """terms times u(a), terms {(central modes, canonical word): coeff}, the
    one straightening step, which only _accumulate_raw calls.  u(a) enters
    each word from the right, passes the trailing letters v that sort after
    it and stops in canonical position; passing v leaves [u(v), u(a)] times
    the word without v, which is still canonical."""
    key = _u_sort_key(a)
    out = {}
    for (zs, w), cf in terms.items():
        p = len(w)
        while p and _u_sort_key(w[p - 1]) > key:
            p -= 1
            br = bracket_uu_coeff(w[p], a)
            if br is not None:
                t = (zs + (w[p] + a,), w[:p] + w[p + 1 :])
                out[t] = out[t] + cf * br if t in out else cf * br
        t = (zs, w[:p] + (a,) + w[p:])
        out[t] = out[t] + cf if t in out else cf
    return out


class EnvElement(SparseVector):
    """Finite Q(i)-combination of canonical PBW monomials."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "EnvElement":
        return cls({ONE_MONO: ONE})

    @classmethod
    def monomial(cls, zpart: Sequence[int], upart: Sequence[int], coeff=ONE) -> "EnvElement":
        out = cls()
        out._accumulate_raw(tuple(zpart), tuple(upart), coeff)
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

    def _accumulate_raw(self, zpart: Tuple[int, ...], useq: Tuple[int, ...], coeff, word=()) -> None:
        """Add coeff * z(zpart) u(word) u(useq), word canonical: every PBW
        product here.  The letters of useq move into word from the right, one
        _right_step each; each term's central modes, zpart's and the
        brackets', are sorted once, at the end, where cancelled terms drop."""
        cur = {(zpart, word): coeff}  # (central modes, unsorted; word) -> coeff
        for a in useq:
            cur = _right_step(cur, a)
        for (zs, w), cf in cur.items():
            self.add_term((tuple(sorted(zs, reverse=True)), w), cf)

    def right_mul_u(self, n4: int) -> "EnvElement":
        """self times u(n4/4): u(n4/4) moves into each term's word."""
        out = EnvElement()
        for (z, u), cf in self.terms.items():
            out._accumulate_raw(z, (n4,), cf, u)
        return out

    def _left_mul_word(self, z: Tuple[int, ...], u: Tuple[int, ...]) -> "EnvElement":
        """z(z) u(u) times self, for a canonical u: each term's letters move
        into the word u, carrying the term's coefficient."""
        out = EnvElement()
        for (hz, hw), hc in self.terms.items():
            out._accumulate_raw(z + hz, hw, hc, u)
        return out

    def __mul__(self, other: "EnvElement") -> "EnvElement":
        out = EnvElement()
        for (z1, u1), c1 in self.terms.items():
            for (z2, u2), c2 in other.terms.items():
                out._accumulate_raw(z1 + z2, u2, c1 * c2, u1)
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
        simple-component mode u(-1/4)."""
        return self.shift(-1).right_mul_u(-1)

    # -- evaluation into the module ------------------------------------------

    def evaluate(self, fock: TwistedFock, table: Dict[PBWMonomial, FockVector]) -> FockVector:
        """Apply to the vacuum, substituting the component operators for the
        generators.  Each monomial's image is read from table through
        vacuum_image, so a caller that passes one table to many elements
        evaluates each PBW monomial once."""
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


def admissible_t4(kind: str, t4: int) -> bool:
    if kind not in GENERATORS:
        raise ValueError(kind)
    least, step, _ = GENERATORS[kind]
    return t4 >= least and (t4 - least) % step == 0


def make_R0(kind: str, t4: int) -> EnvElement:
    """The truncated degree-t relation generator of kind: the first family
    of kind that suites._quadratic_sums yields, the one in a1 and a12 alone,
    on the window of negative index pairs (n1, n2), with a12 read as z and
    a1 as u.  A pair's half-step shift can leave a nonnegative factor:
    make_R0(R1, 2) is 2u(-3/4)u(1/4) + 2u(-1/4)u(-1/4)."""
    if not admissible_t4(kind, t4):
        raise ValueError("inadmissible truncation degree %s for %s" % (Fraction(t4, 4), kind))
    words = next(words for _, k, words in _quadratic_sums(t4, -1, -4) if k == kind)
    out = EnvElement()
    for w, outer, m4, (inner, n4) in words:
        factors = ((outer, m4), (inner, n4))
        out._accumulate_raw(tuple(n for k, n in factors if k == "a12"), tuple(n for k, n in factors if k == "a1"), w)
    return out


def _generator_keys(max_qweight4: int) -> List[Tuple[str, int]]:
    return [
        (kind, t4)
        for kind, (least, step, _) in GENERATORS.items()
        for t4 in range(least, max_qweight4 + 1, step)
    ]


@functools.lru_cache(maxsize=None)
def _weight_multisets(step: int, total4: int, count: int, max4: int) -> Tuple[Tuple[int, ...], ...]:
    """Multisets of count positive quarter-weights summing to total4,
    descending, each <= max4: odd weights (step 2, u modes) or multiples of
    4 (step 4, z modes)."""
    if count == 0:
        return ((),) if total4 == 0 else ()
    least = 1 if step == 2 else step  # the smallest weight allowed
    out = []
    w = min(max4, total4 - least * (count - 1))
    w -= (w - least) % step
    while w >= least:
        for rest in _weight_multisets(step, total4 - w, count - 1, w):
            out.append((w,) + rest)
        w -= step
    return tuple(out)


def pbw_monomials(charge: int, qweight4: int) -> List[PBWMonomial]:
    """Canonical negative-mode PBW monomials of the given grade."""
    out = []
    for r in range(charge // 2 + 1):
        s = charge - 2 * r
        for zq in range(0, qweight4 + 1):
            uq = qweight4 - zq
            for zw in _weight_multisets(4, zq, r, zq if zq else 4):
                zpart = tuple(sorted((-w for w in zw), reverse=True))
                for uw in _weight_multisets(2, uq, s, uq if uq else 1):
                    out.append((zpart, u_canonical([-w for w in uw])))
    return sorted(out)


def _dress(kind: str, t4: int, slack4: int) -> List[Tuple[EnvElement, Tuple[int, int]]]:
    """The generator of kind and degree t4, pre-multiplied by every multiset
    of nonnegative odd modes up to t4 + slack4 (at most as many as it has
    simple factors) and projected, with the grade of each nonzero result."""
    gen = make_R0(kind, t4)
    odd = range(1, t4 + slack4 + 1, 2)
    dressings = (
        dress
        for count in range(GENERATORS[kind][2] + 1)
        for dress in itertools.combinations_with_replacement(odd, count)
    )
    out = []
    for dress in dressings:
        proj = gen._left_mul_word((), dress[::-1]).project_negative()
        if not proj.is_zero():
            out.append((proj, proj.grade()))
    return out


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
    both are kept for the life of the slice, and the presentation suite
    reads its buckets' lists from monomials too.  Each product moves the
    dressed generator's few letters into the PBW word from the right
    (EnvElement._accumulate_raw); nothing else is kept.  A bucket's spanning
    vectors lie among its PBW monomials, so a slice whose rank reaches
    their number is full: the presentation suite stops eliminating there.
    """

    def __init__(self, slack4: int = 0):
        # (kind, t4) -> [(dressed generator, its grade)]
        self._dressed = LazyTable(lambda key: _dress(*key, slack4))
        # (charge, qweight4) -> its PBW monomials
        self.monomials = LazyTable(lambda key: tuple(pbw_monomials(*key)))

    def bucket_span(self, charge: int, qweight4: int) -> List[EnvElement]:
        """Spanning set of the ideal's projection in one graded piece: each
        dressed generator h times the PBW monomials of the missing grade.
        h has negative modes only, and so has its product with negative
        modes: the projection, which commutes with left multiplication, is
        not taken again."""
        out = []
        for key in _generator_keys(qweight4):
            for h, (gk, gq) in self._dressed[key]:
                dk, dq = charge - gk, qweight4 - gq
                if dk < 0 or dq < dk:  # each creation generator costs at least 1 quarter
                    continue
                for z, u in self.monomials[(dk, dq)]:
                    elt = h._left_mul_word(z, u)
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


def check_ideal_stability() -> Report:
    """Shift images of the truncated generators, to degree t = 6, land back
    in the ideal, and the companion-map images decompose against the ideal
    generators with solved nonzero constants."""
    rep = Report("ideal-stability")
    t4_max = 24
    solved_b = {}
    solved_d = {}
    # Companion map: psi(shift(a)) = a * u(-1/4) exactly, so the residual
    # content is the decomposition of g*u(-1/4) - u(-1/4)*g against the
    # generator one quarter up (uu against zu, zu against zz); zz is central.
    above = {R1: (R121, solved_b), R121: (R12, solved_d)}
    for kind, t4 in _generator_keys(t4_max):
        g = make_R0(kind, t4)
        img = g.shift(1)
        # the shift lowers a generator with n_u simple factors by 8 - 2 n_u
        # quarters and scales it by the character value i^3 per simple factor
        n_u = GENERATORS[kind][2]
        low4 = t4 - 8 + 2 * n_u
        if not admissible_t4(kind, low4):
            rep.record(_is_positive_part(img), {"identity": "shift-boundary", "kind": kind, "t4": t4})
        else:
            resid = img - make_R0(kind, low4).scale(i_power(3 * n_u))
            rep.record(_is_positive_part(resid), {"identity": "shift-descent", "kind": kind, "t4": t4})
        if kind == R1:
            rep.record(img.psi() == g.right_mul_u(-1), {"identity": "companion-exactness", "kind": kind, "t4": t4})
        diff = g.right_mul_u(-1) - g._left_mul_word((), (-1,))
        if kind == R12:
            rep.record(diff.is_zero(), {"identity": "companion-central", "kind": kind, "t4": t4})
            continue
        up, solved = above[kind]
        if not admissible_t4(up, t4 + 1):  # below it uu leaves a positive part, zu nothing
            low = _is_positive_part(diff) if kind == R1 else diff.is_zero()
            rep.record(low, {"identity": "companion-low", "kind": kind, "t4": t4})
            continue
        const = _match_constant(diff, make_R0(up, t4 + 1))
        ok = const is not None and not const.is_zero()
        if ok:
            solved[str(Fraction(t4, 4))] = const.as_strings()
        rep.record(ok, {"identity": "companion-decomposition", "kind": kind, "t4": t4})
    rep.details["solved_b"] = solved_b
    rep.details["solved_d"] = solved_d
    return rep
