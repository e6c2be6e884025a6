"""The twisted Fock space: mode monomials bucketed by (charge, quarter-weight),
the twisted Heisenberg action, vertex operator components as exact maps, the
charge-raising group operator, the constant-term lowering operator, and the
mode-relation / bracket / quadratic-relation checkers.

Conventions.  Mode indices are integers in quarter units; a Heisenberg
quantum is stored as its positive quarter-weight, so entries that are 0 mod 4
belong to the fixed-eigenspace boson and entries that are 2 mod 4 to the
flipped one.  Bucket weight excludes the global 1/16 shift, which is purely
additive and is reinstated only in reports.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_left
from fractions import Fraction
from math import comb, factorial, isqrt, lcm
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .groups import HAT_LNU, CosetModel, TauTable, section
from .lattice import ALPHA1, ALPHA2, THETA, LatticeVector, gram, nu, project_lattice
from .scalar import ExactMatrix, GaussianRational, LazyTable, ONE, SparseVector, ZERO, _reduced, i_power

FockMonomial = Tuple[Tuple[int, ...], int]  # (quanta sorted descending, coset charge)
BucketKey = Tuple[int, int]  # (charge, quarter-weight)

VACUUM: FockMonomial = ((), 0)


def monomial_qweight(mono: FockMonomial) -> int:
    modes, c = mono
    return sum(modes) + c * c


class FockVector(SparseVector):
    """Finite linear combination of Fock monomials with Q(i) coefficients."""

    __slots__ = ()

    @classmethod
    def unit(cls, mono: FockMonomial) -> "FockVector":
        return cls({mono: ONE})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            "(%r)*%s" % (self.terms[mono], _mono_str(mono)) for mono in sorted(self.terms)
        )

    def buckets(self) -> set:
        return {(c, monomial_qweight((modes, c))) for modes, c in self.terms}


def _mono_str(mono: FockMonomial) -> str:
    modes, c = mono
    if not modes:
        return "|%d>" % c
    parts = " ".join("b%d(-%s)" % (q % 4, Fraction(q, 4)) for q in modes)
    return "%s|%d>" % (parts, c)


@functools.lru_cache(maxsize=None)
def _even_partitions(total: int, max_part: int, mod4_only: bool) -> Tuple[Tuple[int, ...], ...]:
    """Partitions of total into even parts (multiples of 4 when mod4_only),
    each part <= max_part, parts descending."""
    if total == 0:
        return ((),)
    step = 4 if mod4_only else 2
    out = []
    p = min(max_part, total)
    p -= p % step
    while p >= step:
        for rest in _even_partitions(total - p, p, mod4_only):
            out.append((p,) + rest)
        p -= step
    return tuple(out)


def bucket_exists(charge: int, qweight: int) -> bool:
    return qweight >= charge * charge and (qweight - charge * charge) % 2 == 0


@functools.lru_cache(maxsize=None)
def enumerate_bucket(charge: int, qweight: int) -> Tuple[FockMonomial, ...]:
    """All monomials of the bucket, deterministically ordered."""
    if not bucket_exists(charge, qweight):
        return ()
    rest = qweight - charge * charge
    return tuple(sorted((p, charge) for p in _even_partitions(rest, max(rest, 2), False)))


def all_buckets(cutoff: int) -> List[BucketKey]:
    """Every nonempty bucket with qweight <= cutoff, charges of both signs."""
    out = []
    for l in range(cutoff + 1):
        cmax = isqrt(l)
        for c in range(-cmax, cmax + 1):
            if bucket_exists(c, l):
                out.append((c, l))
    return out


# --- vertex operator data ---------------------------------------------------

GRAM_NORM = {0: 2, 2: 6}  # <beta, beta> for the two boson families


def sigma_factor(vec: LatticeVector) -> GaussianRational:
    """Normalizing factor (1+i)^<nu a, a> * 2^(<a,a>/2) at period 4."""
    half_norm, rem = divmod(gram(vec, vec), 2)
    if rem:
        raise ValueError("lattice not even")
    return (GaussianRational(1, 1) ** gram(nu(vec), vec)) * (GaussianRational(2) ** half_norm)


class VertexData(NamedTuple):
    vec: LatticeVector
    f0: int  # contraction factor kappa0 * <beta, beta> of the fixed boson
    f2: int  # contraction factor kappa2 * <beta, beta> of the flipped boson
    prefactor: GaussianRational
    head4: int  # 2 <v, v> plus the diagonal quarter-degree at charge 0
    slope4: int  # quarter-degree the diagonal part gains per unit of source charge


def _vertex_data(vec: LatticeVector) -> VertexData:
    p0 = project_lattice(vec, 0)
    p2 = project_lattice(vec, 2)
    pref = (GaussianRational(4) ** (-(gram(vec, vec) // 2))) * sigma_factor(vec)
    # diagonal x-exponent on charge c: <P0 v, c a1> + <P0 v, P0 v>/2 - <v, v>/2;
    # with the 2 <v, v> quarters of the head its constant is 2 <P0 v, P0 v>
    head4 = 2 * gram(p0, p0)
    slope4 = 4 * gram(p0, ALPHA1)
    # per-quantum contraction factors kappa * <beta, beta> of the two families
    f0, f2 = p0.m * GRAM_NORM[0], p2.m * GRAM_NORM[2]
    if any(x.denominator != 1 for x in (head4, slope4, f0, f2)):
        raise AssertionError("diagonal degree or contraction factor not integral")
    return VertexData(vec, int(f0), int(f2), pref, int(head4), int(slope4))


VERTEX_VECS = {"a1": ALPHA1, "a2": ALPHA2, "a12": THETA}


# --- packed mode multisets ----------------------------------------------------
#
# Inside the image kernels a multiset of quanta is one int: the multiplicity
# of quarter mode q (even, positive) is the 8-bit digit at bit offset
# 8 * (q/2 - 1), so merging two multisets is one integer addition.  A digit
# reaches 256 only if the merged quanta weigh at least 256 * 2, so every
# merge is preceded by _check_room on the merged mode sum, which raises
# rather than let a multiplicity carry into the next digit.  Kernel targets
# are interned (one shared int per multiset) and decoded, at the edge,
# through an intern table, and _convolve reads a leftover's weight from a
# third table; each holds one entry per distinct multiset met, so the cutoff
# bounds them (at most 915 multisets at qweight 32).

_DIGIT_BITS = 8
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
_MODE_SUM_LIMIT = 2 << _DIGIT_BITS  # least mode sum at which a multiplicity can reach 256
_TARGETS: Dict[int, int] = {}  # packed multiset -> its one shared int object


def _check_room(mode_sum: int) -> None:
    if mode_sum >= _MODE_SUM_LIMIT:
        raise OverflowError(
            "quanta of total quarter-weight %d may repeat 256 times, beyond the %d-bit multiplicity digit"
            % (mode_sum, _DIGIT_BITS)
        )


def _mode_unit(q: int) -> int:
    """The packed multiset holding one quantum of quarter mode q."""
    return 1 << (_DIGIT_BITS * (q // 2 - 1))


def _pack(modes: Tuple[int, ...]) -> int:
    """The packed multiset of a tuple of quanta."""
    _check_room(sum(modes))
    packed = 0
    for q in modes:
        packed += _mode_unit(q)
    return packed


def _decode(packed: int) -> Tuple[int, ...]:
    """Quanta of a packed multiset, sorted descending."""
    out: List[int] = []
    rest, q = packed, 2
    while rest:
        out += [q] * (rest & _DIGIT_MASK)
        rest >>= _DIGIT_BITS
        q += 2
    return tuple(reversed(out))


def _interned(packed) -> tuple:
    """The shared int objects of packed multisets, as a tuple, so image
    records hold no int of their own."""
    return tuple(map(_TARGETS.setdefault, packed, packed))


_MODES = LazyTable(_decode)  # packed multiset -> its quanta, one shared tuple each
_WEIGHTS = LazyTable(lambda packed: sum(_MODES[packed]))  # packed multiset -> total quarter-weight
# charge -> (packed multiset -> monomial at that charge), one shared monomial each
_MONOS = LazyTable(lambda charge: LazyTable(lambda packed: (_MODES[packed], charge)))


def _annihilation_terms(modes: Tuple[int, ...], f0: int, f2: int) -> List[Tuple[int, int, int]]:
    """Expand an annihilating exponential against a monomial.

    Returns (h4, factor, packed leftover) over all contraction patterns,
    with integer factors, the quantum sizes taken in descending order; the
    per-quantum factor is mode-size independent (the 1/m of the exponential
    cancels against the commutator), leaving binomial counts.
    """
    terms = [(0, 1, _pack(modes))]
    idx = 0
    while idx < len(modes):
        q = modes[idx]
        k = 1
        while idx + k < len(modes) and modes[idx + k] == q:
            k += 1
        idx += k
        f = f0 if q % 4 == 0 else f2
        if f == 0:
            continue
        unit = _mode_unit(q)
        steps = [(j * q, comb(k, j) * f**j, j * unit) for j in range(k + 1)]
        terms = [(h4 + dh, fac * df, left - dl) for h4, fac, left in terms for dh, df, dl in steps]
    return terms


def _expansion(modes: Tuple[int, ...], f0: int, f2: int) -> Tuple[tuple, tuple, tuple]:
    """_annihilation_terms sorted by degree, lowest first, as three tuples:
    the degrees, the packed leftovers (interned) and the factors."""
    h4s, facs, lefts = zip(*sorted(_annihilation_terms(modes, f0, f2), key=itemgetter(0)))
    return h4s, _interned(lefts), facs


@functools.lru_cache(maxsize=None)
def _creation_terms(f0: int, f2: int, g4: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Expand a creating exponential, given by its contraction factors: multisets
    of quanta of total g4 with coefficient prod (kappa*4/q)^j / j! per distinct
    quantum size q, where kappa = f / <beta, beta> of the quantum's family, as
    (den, ((packed parts, numerator), ...)) over one common denominator."""
    out = []
    for parts in _even_partitions(g4, max(g4, 2), f2 == 0):
        coeff = Fraction(1)
        idx = 0
        while idx < len(parts):
            q = parts[idx]
            j = 1
            while idx + j < len(parts) and parts[idx + j] == q:
                j += 1
            family = q % 4
            coeff *= Fraction(4 * (f0 if family == 0 else f2), q * GRAM_NORM[family]) ** j
            coeff /= factorial(j)
            idx += j
        if coeff:
            out.append((_pack(parts), coeff))
    den = lcm(*(coeff.denominator for _, coeff in out))
    return den, tuple((parts, coeff.numerator * (den // coeff.denominator)) for parts, coeff in out)


def _create(f0: int, f2: int, groups: list) -> Tuple[dict, int]:
    """The creating exponential of contraction factors f0, f2 applied to
    leftovers with Gaussian-integer numerators, given as groups (target
    charge, 0 for real or 1 for imaginary parts, [(degree to add, packed
    leftover, numerator), ...]): ({target charge: ({packed target: re},
    {packed target: im})}, the denominator creation adds)."""
    created = {g4: _creation_terms(f0, f2, g4) for _, _, items in groups for g4, _, _ in items}
    cden = lcm(*(gden for gden, _ in created.values()))
    accs: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
    for c2, part, items in groups:
        outs = accs.get(c2)
        if outs is None:
            outs = accs[c2] = ({}, {})
        acc = outs[part]
        get = acc.get
        for g4, left, x in items:
            gden, terms = created[g4]
            x *= cden // gden
            for made, num in terms:
                tgt = left + made
                acc[tgt] = get(tgt, 0) + x * num
    return accs, cden


def _record(den: int, targets: tuple, nums) -> tuple:
    """A kernel as image tables store it: (den, targets, numerators), the
    numerators one signed 64-bit array, or exact ints where one does not fit."""
    try:
        return den, targets, array("q", nums) if nums else ()
    except OverflowError:
        return den, targets, tuple(nums)


def _decoded(accs: Dict[int, Tuple[Dict[int, int], Dict[int, int]]], den: int) -> FockVector:
    """The vector of accumulated numerators ({target charge: ({packed target:
    re}, {packed target: im})}, den): each surviving target decoded and
    reduced once, targets that cancel dropped."""
    out = FockVector()
    for c2, (re, im) in accs.items():
        monos = _MONOS[c2]
        for tgt, x in re.items():
            y = im.get(tgt, 0)
            if x or y:
                out.terms[monos[tgt]] = _reduced(x, y, den)
        for tgt, y in im.items():
            if y and tgt not in re:
                out.terms[monos[tgt]] = _reduced(0, y, den)
    return out


class TwistedFock:
    """Operator engine for the twisted module."""

    def __init__(self):
        self.tau = TauTable()
        self.coset = CosetModel(self.tau)
        self.vertex = {key: _vertex_data(vec) for key, vec in VERTEX_VECS.items()}
        # what apply keeps across calls: annihilation expansions of the
        # vertex kinds by (kind, modes), records of the other kinds by (kind,
        # kernel argument, modes); and matrix() results.  perfbench reads
        # the len of both after each CLI call
        self._mono_cache: Dict[tuple, tuple] = {}
        self._matrix_cache: Dict[tuple, ExactMatrix] = {}
        # (vertex key, source charge) -> (prefactor * coset phase, target charge)
        self._phases: Dict[Tuple[str, int], Tuple[GaussianRational, int]] = {}

    # -- single-operator applications --------------------------------------
    #
    # The image of a monomial (modes, c) splits in two.  The head depends on
    # the operator, its mode and the source charge only: (kernel argument,
    # base, target charge), the base a Q(i) scalar carrying phases and
    # prefactors.  The kernel depends on the operator, the argument and the
    # modes only: (den, packed targets, integer numerators).  For a vertex
    # operator the argument is the quarter-degree the creating exponential
    # must add beyond what the annihilating one removes, so one kernel
    # serves every charge whose mode and x-power give the same degree.
    #
    # There are two ways to apply a vertex component.  Per-monomial records
    # (_accumulate) serve the relation and bracket sweeps and the sweeps'
    # first-level unit images: a record's whole image is re-read (about 20
    # times over the relation and bracket sweeps at cutoff 16), or the
    # sources are single monomials.  Annihilate, merge, create (_convolve)
    # serves apply, apply_batch and the quadratic zero tests: the leftovers
    # of all the source monomials of a sum of one kind meet before one
    # creating exponential, and only the annihilation expansions are kept,
    # in a table the caller may hold across calls (dims keeps one per
    # charge level: at cutoff 32 it builds 2 041 expansions and reads each
    # about 9 times; at cutoff 2 the quadratic sums add 188 705 leftover
    # terms, and 90 merged leftovers survive to be created).  e1, dT, b0
    # and b2 have one-monomial records only.

    def _head(self, kind: str, n4: int, c: int) -> Tuple[int, GaussianRational, int]:
        data = self.vertex.get(kind)
        if data is not None:
            hit = self._phases.get((kind, c))
            if hit is None:
                phase, c2 = self.coset.act_on_charge(section(data.vec, HAT_LNU), c)
                hit = self._phases[(kind, c)] = (data.prefactor * phase, c2)
            # creation minus annihilation
            return -n4 - data.head4 - data.slope4 * c, hit[0], hit[1]
        if kind in ("b0", "b2"):
            if n4 == 0 or (n4 - (2 if kind == "b2" else 0)) % 4:
                raise ValueError("mode does not match the boson family")
            return n4, ONE, c
        if kind == "e1":
            phase, c2 = self.coset.act_on_charge(section(ALPHA1, HAT_LNU), c)
            return 0, phase, c2
        if kind == "dT":
            # the constant term removes quarter-weight 2c, nothing below charge 0
            return 2 * c, i_power(c) if c >= 0 else ONE, c
        raise ValueError("unknown operator kind %r" % kind)

    def _kernel(self, kind: str, arg: int, modes: Tuple[int, ...]) -> Tuple[int, tuple, list]:
        data = self.vertex.get(kind)
        if data is not None:
            _check_room(sum(modes) + arg)  # the mode sum of every target
            terms = _annihilation_terms(modes, -data.f0, -data.f2)
            lefts = [(arg + h4, left, afac) for h4, afac, left in terms if arg + h4 >= 0]
            accs, den = _create(data.f0, data.f2, [(0, 0, lefts)])
            acc = accs[0][0]
            if not all(acc.values()):
                acc = {tgt: n for tgt, n in acc.items() if n}
            return den, _interned(acc), list(acc.values())
        if kind in ("b0", "b2"):  # one Heisenberg mode, family 0 or 2 by its residue
            if arg < 0:
                _check_room(sum(modes) - arg)
                return 1, _interned((_pack(modes) + _mode_unit(-arg),)), [1]
            k = modes.count(arg)
            if not k:
                return 1, (), []
            rest = list(modes)
            rest.remove(arg)
            return 4, _interned((_pack(tuple(rest)),)), [GRAM_NORM[arg % 4] * arg * k]
        if kind == "e1":
            return 1, _interned((_pack(modes),)), [1]
        if kind == "dT":
            live = {leftover: afac for h4, afac, leftover in _annihilation_terms(modes, -1, -1) if h4 == arg}
            return 1, _interned(live), list(live.values())
        raise ValueError("unknown operator kind %r" % kind)

    def _image_raw(self, kind: str, n4: int, mono: FockMonomial):
        """Reference image of one monomial, (base, ((target monomial, weight),
        ...)), the base carrying the kernel's denominator.  Nothing in the
        package calls it: the tests compare every application path against
        it, and perfbench hooks it (fock.images)."""
        modes, c = mono
        arg, base, c2 = self._head(kind, n4, c)
        den, targets, nums = self._kernel(kind, arg, modes)
        return base.scale_frac(Fraction(1, den)), tuple(zip(map(_MONOS[c2].__getitem__, targets), nums))

    def _vertex_raw(self, key: str, n4: int, mono: FockMonomial):
        """_image_raw of a vertex operator component; the reference image the
        tests and perfbench's vertex kernel microbenchmark call."""
        return self._image_raw(key, n4, mono)

    def _accumulate(self, terms, images: Dict[tuple, tuple]):
        """Sum of w * kind(n4) vec over terms (w, kind, n4, vec) as
        Gaussian-integer numerators over one common denominator, nothing
        reduced: ({target charge: ({packed target: re}, {packed target:
        im})}, den).  Kernels are looked up in (or added to) images under
        (kind, argument, modes)."""
        scaled = []
        den = 1
        for w, kind, n4, vec in terms:
            heads = {}
            for (modes, c), coeff in vec.terms.items():
                head = heads.get(c)
                if head is None:
                    arg, base, c2 = self._head(kind, n4, c)
                    s = w * base
                    head = heads[c] = (arg, s.a, s.b, s.d, c2)
                arg, ha, hb, hd, c2 = head
                key = (kind, arg, modes)
                rec = images.get(key)
                if rec is None:
                    rec = images[key] = _record(*self._kernel(*key))
                kden, targets, nums = rec
                if targets:
                    # coeff * head base over coeff.d * base.d * kden, unreduced
                    ca, cb = coeff.a, coeff.b
                    d = coeff.d * hd * kden
                    scaled.append((ca * ha - cb * hb, ca * hb + cb * ha, d, c2, targets, nums))
                    if den % d:
                        den = lcm(den, d)
        # real and imaginary parts in separate dicts: most scaled terms are
        # purely real or purely imaginary, and a zero part costs no pass
        accs: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
        for a, b, d, c2, targets, nums in scaled:
            parts = accs.get(c2)
            if parts is None:
                parts = accs[c2] = ({}, {})
            w = den // d
            for x, acc in ((a, parts[0]), (b, parts[1])):
                if x:
                    x *= w
                    get = acc.get
                    for tgt, n in zip(targets, nums):
                        acc[tgt] = get(tgt, 0) + x * n
        return accs, den

    def _convolve(self, kind: str, terms, expansions: Dict[tuple, tuple]):
        """Sum of w * kind(n4) vec over terms (w, n4, vec) of one vertex
        kind, in the shape _accumulate returns.  Each source monomial is
        annihilated once; the leftovers of all the terms' monomials, scaled
        by their heads (each term's weight folded in), are merged as
        Gaussian-integer numerators per (target charge, target mode sum),
        where a leftover's own weight fixes the degree the creating
        exponential must add; each leftover is then convolved once with the
        creating exponential of that degree.  Annihilation expansions are
        looked up in (or added to) expansions under (kind, modes)."""
        data = self.vertex[kind]
        f0, f2 = data.f0, data.f2
        sources = []
        den = 1
        for w, n4, vec in terms:
            heads = {}
            for (modes, c), coeff in vec.terms.items():
                head = heads.get(c)
                if head is None:
                    arg, base, c2 = self._head(kind, n4, c)
                    s = w * base
                    head = heads[c] = (arg, s.a, s.b, s.d, c2)
                arg, ha, hb, hd, c2 = head
                total = sum(modes) + arg  # the mode sum of every target
                _check_room(total)
                if total < 0:
                    continue
                ca, cb = coeff.a, coeff.b
                d = coeff.d * hd
                sources.append((ca * ha - cb * hb, ca * hb + cb * ha, d, arg, (c2, total), modes))
                if den % d:
                    den = lcm(den, d)
        # leftovers over den, real and imaginary parts apart
        merged: Dict[Tuple[int, int], Tuple[Dict[int, int], Dict[int, int]]] = {}
        for a, b, d, arg, group, modes in sources:
            key = (kind, modes)
            expansion = expansions.get(key)
            if expansion is None:
                expansion = expansions[key] = _expansion(modes, -f0, -f2)
            h4s, lefts, facs = expansion
            k = bisect_left(h4s, -arg)  # lower degrees leave the creating exponential nothing to add
            if k == len(h4s):
                continue
            if k:
                lefts, facs = lefts[k:], facs[k:]
            parts = merged.get(group)
            if parts is None:
                parts = merged[group] = ({}, {})
            w = den // d
            for x, acc in ((a, parts[0]), (b, parts[1])):
                if x:
                    x *= w
                    get = acc.get
                    for left, fac in zip(lefts, facs):
                        acc[left] = get(left, 0) + x * fac
        weights = _WEIGHTS  # a leftover's own weight fixes the degree it must gain
        groups = [
            (c2, k, [(total - weights[left], left, x) for left, x in part.items() if x])
            for (c2, total), parts in merged.items()
            for k, part in enumerate(parts)
        ]
        accs, cden = _create(f0, f2, groups)
        return accs, den * cden

    def _apply(self, kind: str, n4: int, vec: FockVector, images: Dict[tuple, tuple]) -> FockVector:
        """Image of vec through per-monomial records kept in images."""
        return _decoded(*self._accumulate(((ONE, kind, n4, vec),), images))

    def _apply_whole(self, kind: str, n4: int, vec: FockVector, table: Dict[tuple, tuple]) -> FockVector:
        """Image of vec for apply and apply_batch: vertex components by
        _convolve over the annihilation expansions in table, the other kinds
        through their records in table."""
        if kind in self.vertex:
            return _decoded(*self._convolve(kind, [(ONE, n4, vec)], table))
        return self._apply(kind, n4, vec, table)

    def apply(self, kind: str, n4: int, vec: FockVector) -> FockVector:
        return self._apply_whole(kind, n4, vec, self._mono_cache)

    def apply_batch(
        self, kind: str, n4: int, vectors: Sequence[FockVector], table: Optional[Dict[tuple, tuple]] = None
    ) -> List[FockVector]:
        """Apply one operator to many vectors, its expansions or records
        kept in table: one the caller holds across batches, or by default a
        table of this call's own (nothing retained afterwards)."""
        if table is None:
            table = {}
        return [self._apply_whole(kind, n4, vec, table) for vec in vectors]

    # -- operator metadata ---------------------------------------------------

    @staticmethod
    def op_charge(kind: str) -> int:
        return {"a1": 1, "a2": 1, "a12": 2, "e1": 1, "dT": 0, "b0": 0, "b2": 0}[kind]

    def target_bucket(self, kind: str, n4: int, src: BucketKey) -> BucketKey:
        c, l = src
        if kind in self.vertex or kind in ("b0", "b2"):
            return (c + self.op_charge(kind), l - n4)
        if kind == "e1":
            return (c + 1, l + 2 * c + 1)
        if kind == "dT":
            return (c, l - 2 * c)
        raise ValueError(kind)

    def matrix(self, kind: str, n4: int, src: BucketKey) -> ExactMatrix:
        """The operator on one bucket, column j the image of its j-th
        monomial, filled from apply_batch on unit vectors and kept in
        _matrix_cache.  Only tests call it; perfbench hooks it and reads the
        result's cols."""
        key = (kind, n4, src)
        hit = self._matrix_cache.get(key)
        if hit is not None:
            return hit
        src_monos = enumerate_bucket(*src)
        tgt_monos = enumerate_bucket(*self.target_bucket(kind, n4, src))
        index = {m: i for i, m in enumerate(tgt_monos)}
        mat = ExactMatrix(len(tgt_monos), len(src_monos))
        for j, image in enumerate(self.apply_batch(kind, n4, [FockVector.unit(m) for m in src_monos])):
            for mono, coeff in image.terms.items():
                mat[index[mono], j] = coeff
        self._matrix_cache[key] = mat
        return mat

    def vacuum(self) -> FockVector:
        return FockVector.unit(VACUUM)


# --- reporting ----------------------------------------------------------------


class Report:
    """Outcome of one verification suite; a suite that checked nothing fails."""

    def __init__(self, name: str):
        self.name = name
        self.mismatched = False
        self.checked = 0
        self.failures: List[dict] = []
        self.details: Dict[str, object] = {}

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.mismatched

    def record(self, ok: bool, failure: Optional[dict] = None) -> None:
        self.checked += 1
        if not ok:
            self.mismatched = True
            if failure is not None and len(self.failures) < 10:
                self.failures.append(failure)

    def as_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "checked": self.checked}
        if self.details:
            out["details"] = self.details
        if self.failures:
            out["first_failures"] = self.failures
        return out


# --- mode relation checks -------------------------------------------------------


def check_linear_relations(fock: TwistedFock, cutoff: int) -> Report:
    """Vanishing and coincidence relations among the component operators:
    both simple-vector components vanish at half-integer modes, coincide up
    to the mode-class sign at quarter modes, and the highest-vector
    component vanishes off integer modes.  Each relation is checked on the
    images of the bucket's basis vectors by integer zero tests, through one
    image table for the sweep, freed when the suite returns."""
    rep = Report("linear-relations")
    local = _LocalApplier(fock)
    for bucket in all_buckets(cutoff):
        c, l = bucket
        units = [FockVector.unit(mono) for mono in enumerate_bucket(*bucket)]

        def vanishes(key: str, n4: int) -> bool:
            return all(local.vanishes([(ONE, key, n4, u)]) for u in units)

        for n4 in range(l - cutoff, l + 5):
            if n4 % 2 == 0:
                for key in ("a1", "a2"):
                    rep.record(
                        vanishes(key, n4),
                        {"relation": "half-integer-vanishing", "bucket": bucket, "n4": n4, "op": key},
                    )
                if n4 % 4 == 2:
                    rep.record(
                        vanishes("a12", n4),
                        {"relation": "sum-vector-integer-only", "bucket": bucket, "n4": n4},
                    )
            else:
                sign = component_sign(n4)
                minus_sign = GaussianRational(-sign)
                ok = all(local.vanishes([(ONE, "a2", n4, u), (minus_sign, "a1", n4, u)]) for u in units)
                rep.record(
                    ok, {"relation": "component-coincidence", "bucket": bucket, "n4": n4, "sign": sign}
                )
    return rep


def self_bracket_coeff(m4: int) -> GaussianRational:
    """-(i/4) * (i^(-4m) - (-i)^(-4m)) with the first factor's mode index."""
    return GaussianRational(0, Fraction(-1, 4)) * (i_power(-m4) - i_power(m4))


def bracket_coeff(left: str, right: str, m4: int) -> GaussianRational:
    if left == "a1" and right == "a2":
        return GaussianRational(Fraction(1, 2))
    if left == "a2" and right == "a1":
        return GaussianRational(Fraction(-1, 2))
    if left == right == "a1":
        return self_bracket_coeff(m4)
    if left == right == "a2":
        return -self_bracket_coeff(m4)
    raise ValueError((left, right))


class _LocalApplier:
    """Operator application for one verification sweep (one per sweep): image
    records and annihilation expansions live in tables local to the sweep,
    so the engine's cache does not grow with large mode ranges and
    everything is freed when the sweep returns.  Images k(n)*m of the
    current bucket's basis monomials are remembered in units, which the
    sweep clears at each new bucket.  Both zero tests reduce nothing:
    vanishes reads records (whole images re-read, or single-monomial
    sources); sum_vanishes factorizes words of one outer kind."""

    def __init__(self, fock: TwistedFock):
        self.fock = fock
        self.images: Dict[tuple, tuple] = {}
        self.expansions: Dict[tuple, tuple] = {}
        self.units: Dict[tuple, FockVector] = {}  # (kind, n4, mono) -> image of the unit vector

    def apply(self, kind: str, n4: int, vec: FockVector) -> FockVector:
        return self.fock._apply(kind, n4, vec, self.images)

    def vanishes(self, terms) -> bool:
        """Whether sum w * kind(n4) vec over terms (w, kind, n4, vec) is zero,
        decided on the unreduced integer numerators."""
        return _all_zero(self.fock._accumulate(terms, self.images)[0])

    def sum_vanishes(self, kind: str, terms) -> bool:
        """Whether sum w * kind(n4) vec over terms (w, n4, vec) of one vertex
        kind is zero, decided by one _convolve pass on the unreduced integer
        numerators."""
        return _all_zero(self.fock._convolve(kind, terms, self.expansions)[0])

    def unit_image(self, kind: str, n4: int, mono: FockMonomial) -> FockVector:
        key = (kind, n4, mono)
        img = self.units.get(key)
        if img is None:
            img = self.units[key] = self.apply(kind, n4, FockVector.unit(mono))
        return img


def _all_zero(accs: Dict[int, Tuple[Dict[int, int], Dict[int, int]]]) -> bool:
    return not any(any(part.values()) for parts in accs.values() for part in parts)


def component_sign(n4: int) -> int:
    """Sign relating the two simple components at a quarter mode."""
    return 1 if n4 % 4 == 1 else -1


def check_brackets(fock: TwistedFock, cutoff: int, max_mode4: int = 12) -> Report:
    """Commutators of component operators against the closed bracket table.

    Verified exactly per bucket basis vector: the self-bracket family of
    the first component, centrality of the integer-mode component, and the
    mode-wise coincidence of the two simple components.  The three
    remaining families follow from those by exact sign arithmetic, which
    is asserted over the whole mode range.
    """
    rep = Report("bracket-table")
    odd = [n for n in range(-max_mode4, max_mode4 + 1) if n % 2]
    z_modes = [n for n in range(-max_mode4, max_mode4 + 1) if n % 4 == 0]
    # scalar closure of the aliased families, valid wherever the target
    # component can be nonzero (index sums in the integer class)
    for m4 in odd:
        for n4 in odd:
            if (m4 + n4) % 4:
                continue
            c_self = self_bracket_coeff(m4)
            rep.record(
                c_self.scale_frac(Fraction(component_sign(n4))) == bracket_coeff("a1", "a2", m4),
                {"closure": ("a1", "a2", m4, n4)},
            )
            rep.record(
                c_self.scale_frac(Fraction(component_sign(m4))) == bracket_coeff("a2", "a1", m4),
                {"closure": ("a2", "a1", m4, n4)},
            )
            rep.record(
                c_self.scale_frac(Fraction(component_sign(m4) * component_sign(n4)))
                == bracket_coeff("a2", "a2", m4),
                {"closure": ("a2", "a2", m4, n4)},
            )
    local = _LocalApplier(fock)
    unit = local.unit_image
    minus_one = GaussianRational(-1)
    for bucket in all_buckets(cutoff):
        c, l = bucket
        local.units.clear()
        basis = [(mono, FockVector.unit(mono)) for mono in enumerate_bucket(*bucket)]

        def pair_ok(lk, m4, rk, n4, coeff) -> bool:
            # [lk(m4), rk(n4)] - coeff * a12(m4 + n4) on each basis vector
            for mono, e in basis:
                terms = [(ONE, lk, m4, unit(rk, n4, mono)), (minus_one, rk, n4, unit(lk, m4, mono))]
                if coeff:
                    terms.append((-coeff, "a12", m4 + n4, e))
                if not local.vanishes(terms):
                    return False
            return True

        for n4 in odd:
            if l - n4 > cutoff:
                continue
            minus_sign = GaussianRational(-component_sign(n4))
            ok = all(local.vanishes([(ONE, "a2", n4, e), (minus_sign, "a1", n4, e)]) for _, e in basis)
            rep.record(ok, {"bracket": ("component-coincidence", n4), "bucket": bucket})
        for m4 in odd:
            if l - m4 > cutoff:
                continue
            for n4 in odd:
                if n4 > m4:
                    continue  # antisymmetry makes the swapped pair the same check
                if l - n4 > cutoff or l - m4 - n4 > cutoff:
                    continue
                ok = pair_ok("a1", m4, "a1", n4, bracket_coeff("a1", "a1", m4))
                rep.record(ok, {"bracket": ("a1", m4, "a1", n4), "bucket": bucket})
        for m4 in z_modes:
            if l - m4 > cutoff:
                continue
            for key, n4s in (("a1", odd), ("a12", z_modes)):
                for n4 in n4s:
                    if l - n4 > cutoff or l - m4 - n4 > cutoff:
                        continue
                    ok = pair_ok("a12", m4, key, n4, ZERO)
                    rep.record(ok, {"bracket": ("a12", m4, key, n4), "bucket": bucket})
    return rep


# --- quadratic relation sums ------------------------------------------------

# uu families: pairs (n1, n2) with n1 + n2 + 1/2 = -t contribute
# phase(n2) * (x_left(n1 + 1/2) x_right(n2) + sign * x_left(n1) x_right(n2 + 1/2)).
# The same-component sums come from the x2 -> x1 limit and carry no phase;
# the mixed sums come from the x2^(1/4) -> i x1^(1/4) limit, which weights
# each pair by i^(-4 n2) (without that weight the mixed sums do not vanish).
UU_FAMILIES = {
    "uu-sym-1": ("a1", "a1", 1, False),
    "uu-sym-2": ("a2", "a2", 1, False),
    "uv-antisym-12": ("a1", "a2", -1, True),
    "uv-antisym-21": ("a2", "a1", -1, True),
}


def _quadratic_sums(t4: int, ucap: int, zcap: int):
    """The degree-t quadratic sums through their finite windows, as (family,
    outer kind, words), each word ((left index, right kind, right index),
    weight) with the outer kind on the left; ucap and zcap are the largest
    live quarter indices of the charge-1 and charge-2 components on the
    source bucket."""
    if t4 % 2 == 0:
        # paired simple-component sums, indices n1 + n2 + 1/2 = -t
        pairs = [
            (a4, -t4 - 2 - a4) for a4 in range(-t4 - 2 - ucap, ucap + 1) if a4 % 2 and -t4 - 2 - a4 <= ucap
        ]
        for fam, (lk, rk, sign, phased) in UU_FAMILIES.items():
            words = []
            for a4, b4 in pairs:
                w = i_power(-b4) if phased else ONE
                words += [((a4 + 2, rk, b4), w), ((a4, rk, b4 + 2), w.scale_frac(Fraction(sign)))]
            yield fam, lk, words
    if t4 % 4 == 0:
        # central-central sums, m1 + m2 = -t
        ms = [m4 for m4 in range(-t4 - zcap, zcap + 1) if m4 % 4 == 0 and -t4 - m4 <= zcap]
        yield "zz", "a12", [((m4, "a12", -t4 - m4), ONE) for m4 in ms]
    if t4 % 2:
        # central-simple sums, m + n = -t
        ns = [n4 for n4 in range(-t4 - zcap, ucap + 1) if n4 % 2 and (-t4 - n4) % 4 == 0 and -t4 - n4 <= zcap]
        for rk in ("a1", "a2"):
            yield "z" + rk, "a12", [((-t4 - n4, rk, n4), ONE) for n4 in ns]


def check_quadratic_relations(
    fock: TwistedFock,
    vec_cutoff: int,
    t4_max: int = 24,
    max_intermediate: int = 26,
) -> Report:
    """The degree-t quadratic sums annihilate the module.

    The untruncated sums are evaluated through a finite window: a term is
    provably zero once its right factor's target drops below ground, and
    past the capacity bound on the left index the paired terms cancel after
    swapping (the two central corrections cancel; for the central factor
    the swap is exact).  A sum whose lowest right index needs an
    intermediate bucket beyond max_intermediate is skipped and counted, so
    every enumerated sum is either checked or counted.
    """
    rep = Report("quadratic-relations")
    skipped = 0
    local = _LocalApplier(fock)
    for bucket in all_buckets(vec_cutoff):
        c, l = bucket
        local.units.clear()
        basis = enumerate_bucket(*bucket)
        ucap = l - (c + 1) * (c + 1)  # largest live quarter index for charge-1 components
        zcap = l - (c + 2) * (c + 2)
        for t4 in range(-8, t4_max + 1):
            for fam, kind, words in _quadratic_sums(t4, ucap, zcap):
                if words and l - min(b4 for (_, _, b4), _ in words) > max_intermediate:
                    skipped += len(basis)
                    continue
                for mono in basis:
                    combination = [(w, a4, local.unit_image(rk, b4, mono)) for (a4, rk, b4), w in words]
                    rep.record(
                        local.sum_vanishes(kind, combination),
                        {"family": fam, "t4": t4, "bucket": bucket, "monomial": repr(mono)},
                    )
    rep.details["skipped_vector_sums"] = skipped
    return rep


# --- exponential-exchange identity ------------------------------------------


def exchange_series(alpha: LatticeVector, beta: LatticeVector, order: int) -> List[GaussianRational]:
    """Coefficients in y = (x2/x1)^(1/4) of prod_p (1 - i^p y)^<nu^p alpha, beta>,
    one factor (1 - c*y) at a time, in place."""
    out = [ONE] + [ZERO] * order
    a = alpha
    for p in range(4):
        c, e = i_power(p), gram(a, beta)
        for _ in range(e):  # times 1 - c*y, from the top coefficient down
            for k in range(order, 0, -1):
                out[k] = out[k] - c * out[k - 1]
        for _ in range(-e):  # over 1 - c*y, from the bottom coefficient up
            for k in range(1, order + 1):
                out[k] = out[k] + c * out[k - 1]
        a = nu(a)
    return out


def _e_plus_map(data: VertexData, vec: FockVector) -> Dict[int, FockVector]:
    """Expansion of the annihilating exponential of a vector: {h4: image}."""
    out: Dict[int, FockVector] = {}
    for mono, coeff in vec.terms.items():
        modes, c = mono
        for h4, afac, leftover in _annihilation_terms(modes, data.f0, data.f2):
            out.setdefault(h4, FockVector()).add_term(_MONOS[c][leftover], coeff * afac)
    return {h: v for h, v in out.items() if not v.is_zero()}


def _e_minus_map(data: VertexData, vec: FockVector, order: int) -> Dict[int, FockVector]:
    """Truncated expansion of the creating exponential: {g4: image}."""
    out: Dict[int, FockVector] = {}
    for g4 in range(0, order + 1, 2):
        acc = FockVector()
        den, created_terms = _creation_terms(-data.f0, -data.f2, g4)
        for created, num in created_terms:
            cfac = Fraction(num, den)
            for mono, coeff in vec.terms.items():
                modes, c = mono
                _check_room(sum(modes) + g4)
                acc.add_term(_MONOS[c][_pack(modes) + created], coeff * cfac)
        if not acc.is_zero():
            out[g4] = acc
    return out


def check_exchange_identity(fock: TwistedFock) -> Report:
    """Low-order coefficient check of the exchange rule
    E+(a,x1)E-(b,x2) = E-(b,x2)E+(a,x1) prod_p (1 - i^p (x2/x1)^(1/4))^<nu^p a,b>
    on the vacuum and on an excited monomial, up to quarter-degree 12 in
    each variable, with the contraction factors of fock's vertex operators;
    the rule holds for every pair of lattice vectors, so the pairs cover
    the sum vector on either side."""
    rep = Report("exponential-exchange")
    order = 12
    test_vectors = [FockVector.unit(VACUUM), FockVector.unit(((6, 4, 2), 1))]
    for a, b in (("a1", "a1"), ("a1", "a2"), ("a1", "a12"), ("a12", "a1"), ("a12", "a12")):
        da, db = fock.vertex[a], fock.vertex[b]
        alpha, beta = da.vec, db.vec
        series = exchange_series(alpha, beta, order)
        for v in test_vectors:
            lhs: Dict[Tuple[int, int], FockVector] = {}
            for g4, w in _e_minus_map(db, v, order).items():
                for h4, u in _e_plus_map(da, w).items():
                    if h4 <= order:
                        lhs[(h4, g4)] = lhs.get((h4, g4), FockVector()) + u
            rhs: Dict[Tuple[int, int], FockVector] = {}
            for h4, w in _e_plus_map(da, v).items():
                if h4 > order:
                    continue
                for g4, u in _e_minus_map(db, w, order).items():
                    for k, s in enumerate(series):
                        if s.is_zero():
                            continue
                        key = (h4 + k, g4 + k)
                        if key[0] > order or key[1] > order:
                            continue
                        rhs[key] = rhs.get(key, FockVector()) + u.scale(s)
            for key in sorted(set(lhs) | set(rhs)):
                a = lhs.get(key, FockVector())
                b = rhs.get(key, FockVector())
                rep.record(a == b, {"pair": (tuple(alpha), tuple(beta)), "degrees4": key})
    return rep
