"""Principal-subspace analysis: graded bases built from operator images,
the graded dimension table against the distinct-odd-parts oracle, the
two-term recursion, the short exact sequence of the charge-raising and
constant-term maps, the presentation by the relation ideal, and the
shift-morphism identities.
"""

from __future__ import annotations

from math import isqrt
from typing import Dict, Iterable, List, Optional, Sequence

from .envelope import EnvElement, IdealSlice, PBWMonomial, pbw_monomials, vacuum_image
from .fock import BucketKey, FockVector, TwistedFock, bucket_exists, sigma_factor
from .lattice import ALPHA1
from .report import Report
from .scalar import EchelonBasis, GaussianRational, ONE, i_power


def distinct_odd_partitions(n: int, m: int, cap: Optional[int] = None):
    """Strictly decreasing tuples of m odd positive integers summing to n."""
    if m == 0:
        if n == 0:
            yield ()
        return
    top = n - (m - 1) if cap is None else min(cap, n - (m - 1))
    if top % 2 == 0:
        top -= 1
    p = top
    while p >= 2 * m - 1:
        for rest in distinct_odd_partitions(n - p, m - 1, p - 2):
            yield (p,) + rest
        p -= 2


def partition_oracle(m: int, n: int) -> int:
    """Number of partitions of n into m distinct odd parts, by exhaustive
    enumeration; the independent combinatorial reference for every
    dimension the engine computes."""
    if m < 0 or n < 0:
        return 0
    return sum(1 for _ in distinct_odd_partitions(n, m))


class PrincipalSubspace:
    """Charge/weight-graded bases of the subspace generated from the vacuum
    by the negative simple and central component modes."""

    def __init__(self, fock: TwistedFock, cutoff: int):
        self.fock = fock
        self.cutoff = cutoff
        self.bases: Dict[BucketKey, List[FockVector]] = {}
        # annihilation expansions of the sources of one charge level, read
        # by every bucket of that level and replaced at the next
        self._level: Optional[int] = None
        self._expansions: Dict[tuple, tuple] = {}
        self._build()

    def _candidates(self, k: int, l: int) -> List[FockVector]:
        if k != self._level:
            self._level, self._expansions = k, {}
        table = self._expansions
        out = []
        for a4 in range(1, l + 1, 2):
            src = self.bases.get((k - 1, l - a4))
            if src:
                out.extend(v for v in self.fock.apply_batch("a1", -a4, src, table) if not v.is_zero())
        for b4 in range(4, l + 1, 4):
            src = self.bases.get((k - 2, l - b4))
            if src:
                out.extend(v for v in self.fock.apply_batch("a12", -b4, src, table) if not v.is_zero())
        return out

    def _build(self) -> None:
        self.bases[(0, 0)] = [self.fock.vacuum()]
        kmax = isqrt(self.cutoff)
        for k in range(1, kmax + 1):
            for l in range(k * k, self.cutoff + 1):
                if bucket_exists(k, l):
                    res = EchelonBasis().extend(self._candidates(k, l))
                    if res:
                        self.bases[(k, l)] = res
        self._level, self._expansions = None, {}

    def table(self) -> Dict[BucketKey, int]:
        """{(charge, qweight): dimension} for every 0 <= charge <= qweight <=
        cutoff, empty buckets included."""
        return {(k, l): len(self.basis(k, l)) for l in range(self.cutoff + 1) for k in range(l + 1)}

    def basis(self, k: int, l: int) -> List[FockVector]:
        return self.bases.get((k, l), [])


def check_oracle(table: Dict[BucketKey, int]) -> Report:
    """The central identity: bucket dimensions equal the number of
    partitions into distinct odd parts, exactly, bucket by bucket."""
    rep = Report("partition-oracle")
    for (k, l), d in sorted(table.items()):
        expected = partition_oracle(k, l)
        rep.record(d == expected, {"bucket": (k, l), "dim": d, "oracle": expected})
    return rep


def check_recursion(table: Dict[BucketKey, int]) -> Report:
    """dim(k, l) = dim(k, l - 2k) + dim(k - 1, l - 2k + 1), out-of-range
    entries read as zero, with dim(0, 0) = 1."""
    rep = Report("recursion")
    ok0 = table.get((0, 0), 0) == 1
    rep.record(ok0, {"bucket": (0, 0)})
    for (k, l), d in sorted(table.items()):
        want = table.get((k, l - 2 * k), 0) + table.get((k - 1, l - 2 * k + 1), 0)
        if k == 0:
            want = 1 if l == 0 else 0
        rep.record(d == want, {"bucket": (k, l), "dim": d, "recursion": want})
    return rep


def _rank_of(vectors: Iterable) -> int:
    return len(EchelonBasis().extend(vectors))


def _slice_rank(span: List[EnvElement], monos: Sequence[PBWMonomial]) -> int:
    """The exact rank of span.  len(monos) rows that all lie among monos
    span every vector there, so a later such vector is dependent and is
    skipped; after one stray vector (a key outside monos) every vector is
    inserted."""
    basis = EchelonBasis()
    inside = set(monos)
    stray = False
    for elt in span:
        within = elt.terms.keys() <= inside
        if within and not stray and len(basis) == len(monos):
            continue
        stray = stray or not within
        basis.insert(elt.terms)
    return len(basis)


def check_exact_sequence(fock: TwistedFock, space: PrincipalSubspace, cutoff: int) -> Report:
    """Per bucket: injectivity of the charge-raising map, surjectivity of
    the constant-term map onto the matching subspace bucket, vanishing of
    the composite, and image = kernel by dimension count."""
    rep = Report("exact-sequence")
    for l in range(cutoff + 1):
        for k in range(isqrt(l) + 1):
            if not bucket_exists(k, l):
                continue
            mid = space.basis(k, l)
            src = space.basis(k - 1, l - 2 * k + 1)
            tgt = space.basis(k, l - 2 * k)
            e_images = [fock.apply("e1", 0, v) for v in src]
            d_images = [fock.apply("dT", 0, v) for v in mid]
            ok_inj = _rank_of(e_images) == len(src)
            rep.record(ok_inj, {"bucket": (k, l), "condition": "injective"})
            mid_span = EchelonBasis()
            mid_span.extend(mid)
            ok_into = all(mid_span.contains(v.terms) for v in e_images)
            rep.record(ok_into, {"bucket": (k, l), "condition": "raising-lands-in-subspace"})
            tgt_span = EchelonBasis()
            tgt_span.extend(tgt)
            ok_to = all(tgt_span.contains(v.terms) for v in d_images)
            rep.record(ok_to, {"bucket": (k, l), "condition": "lowering-lands-in-subspace"})
            ok_surj = _rank_of(d_images) == len(tgt)
            rep.record(ok_surj, {"bucket": (k, l), "condition": "surjective"})
            ok_comp = all(fock.apply("dT", 0, v).is_zero() for v in e_images)
            rep.record(ok_comp, {"bucket": (k, l), "condition": "composite-zero"})
            ok_count = len(src) + len(tgt) == len(mid)
            rep.record(ok_count, {"bucket": (k, l), "condition": "image-equals-kernel-count"})
    return rep


def check_presentation(fock: TwistedFock, table: Dict[BucketKey, int], cutoff: int) -> Report:
    """Per bucket: the PBW monomial count minus the rank of the projected
    relation ideal equals the subspace dimension, and the evaluation map
    kills the whole ideal slice.  Each PBW monomial is evaluated on the
    vacuum once, into a table freed when the suite returns.  details.vacuous
    counts the evaluation checks on buckets the module does not have, where
    every PBW monomial evaluates to zero by grading."""
    rep = Report("presentation")
    slice_ = IdealSlice()
    on_vacuum: Dict[PBWMonomial, FockVector] = {}
    finding = {}
    vacuous = 0
    for l in range(cutoff + 1):
        # charges beyond sqrt(l) have no module bucket, but the enveloping
        # algebra still has monomials there; the ideal must fill the slice.
        for k in range(l + 1):
            monos = slice_.monomials[k, l]
            if not monos and not bucket_exists(k, l):
                continue
            span = slice_.bucket_span(k, l)
            rank = _slice_rank(span, monos)
            want = table.get((k, l), 0)
            rep.record(
                len(monos) - rank == want,
                {
                    "bucket": (k, l),
                    "pbw_count": len(monos),
                    "ideal_rank": rank,
                    "subspace_dim": want,
                },
            )
            for elt in span:
                rep.record(
                    elt.evaluate(fock, on_vacuum).is_zero(),
                    {"bucket": (k, l), "condition": "ideal-evaluates-to-zero"},
                )
            if not bucket_exists(k, l):
                vacuous += len(span)
            # exploratory finding: images of the distinct-odd-mode words
            distinct = [m for m in monos if not m[0] and len(set(m[1])) == len(m[1])]
            images = [vacuum_image(fock, mono, on_vacuum) for mono in distinct]
            finding[str((k, l))] = {
                "distinct_mode_words": len(distinct),
                "independent": _rank_of(images) == len(distinct),
                "spanning": len(distinct) == want,
            }
    rep.details["distinct_mode_basis_finding"] = finding
    rep.details["vacuous"] = vacuous
    return rep


def solve_raising_constant(fock: TwistedFock, on_vacuum: Dict[PBWMonomial, FockVector]) -> GaussianRational:
    """The proportionality constant of the charge-raising map against the
    companion map at charge zero, evaluated through the caller's table."""
    lhs = fock.apply("e1", 0, fock.vacuum())
    rhs = EnvElement.unit().psi().evaluate(fock, on_vacuum)
    mono, coeff = next(iter(sorted(rhs.terms.items())))
    return lhs.terms[mono] * coeff.inverse()


def check_morphisms(fock: TwistedFock, cutoff: int) -> Report:
    """Identities tying the module maps to the enveloping-algebra maps:
    the constant-term map realizes the index shift, and the charge-raising
    map realizes the companion map up to a charge-graded constant.

    The constant is solved once at charge zero; across charges it follows
    the law A * (-i)^charge forced by the commutation of the raising
    operator with the central component (a single charge-independent
    constant provably cannot exist, which the report also records).  Every
    evaluation reads one table of vacuum images, freed when the suite
    returns.
    """
    rep = Report("shift-morphisms")
    on_vacuum: Dict[PBWMonomial, FockVector] = {}
    a_zero = solve_raising_constant(fock, on_vacuum)
    # e1 . vacuum = (4 / sigma) x(-1/4) . vacuum, with sigma the normalizing factor
    quarter_low = fock.apply("a1", -1, fock.vacuum())
    ok = fock.apply("e1", 0, fock.vacuum()) == quarter_low.scale(
        GaussianRational(4) * sigma_factor(ALPHA1).inverse()
    )
    rep.record(ok, {"identity": "raising-on-vacuum"})
    constants_by_charge = {}
    for l in range(cutoff + 1):
        for k in range(isqrt(l) + 1):
            for mono in pbw_monomials(k, l):
                a = EnvElement({mono: ONE})
                base = a.evaluate(fock, on_vacuum)
                # constant-term map realizes the shift
                lhs = fock.apply("dT", 0, base)
                rhs = a.shift(1).evaluate(fock, on_vacuum)
                rep.record(lhs == rhs, {"identity": "lowering-is-shift", "monomial": mono})
                # raising map realizes the companion map, charge-graded constant
                lhs = fock.apply("e1", 0, base)
                rhs = a.psi().evaluate(fock, on_vacuum).scale(a_zero * i_power(-k))
                rep.record(
                    lhs == rhs,
                    {"identity": "raising-is-companion", "monomial": mono, "charge": k},
                )
                constants_by_charge[k] = (a_zero * i_power(-k)).as_strings()
    rep.details["constant_charge_zero"] = a_zero.as_strings()
    rep.details["constants_by_charge"] = {str(k): v for k, v in sorted(constants_by_charge.items())}
    rep.details["single_global_constant_exists"] = len(
        {tuple(sorted(v.items())) for v in constants_by_charge.values()}
    ) <= 1
    return rep
