"""The twisted Fock space: mode monomials bucketed by (charge, quarter-weight),
the twisted Heisenberg action, vertex operator components as exact maps, the
charge-raising group operator, the constant-term lowering operator, and the
operator application and zero tests the verification sweeps (suites.py) run
on.

Conventions.  Mode indices are integers in quarter units; a Heisenberg
quantum is stored as its positive quarter-weight, so entries that are 0 mod 4
belong to the fixed-eigenspace boson and entries that are 2 mod 4 to the
flipped one.  Bucket weight excludes the global 1/16 shift, which is purely
additive and is reinstated only in reports.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from fractions import Fraction
from math import comb, factorial, gcd, isqrt, lcm
from operator import itemgetter, mul
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .groups import HAT_LNU, CosetModel, TauTable, section
from .lattice import ALPHA1, ALPHA2, THETA, LatticeVector, gram, nu, project_lattice
from .scalar import ExactMatrix, GaussianRational, LazyTable, ONE, SparseVector, _reduced, i_power

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
    """The shared int objects of packed multisets, as a tuple, so kernels
    and expansions hold no int of their own."""
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


# --- packed kernels -------------------------------------------------------------
#
# The relation and bracket zero tests read a vertex kernel as one int: the
# numerator n of target t at n * 2^(K * slot(t)), slot(t) the index of t
# among the multisets of its weight (in _even_partitions order), over
# D(kind, w), the lcm of the creation denominators of the degrees up to the
# target weight w.  A kernel's denominator divides D, and the kernels that
# land in one bucket share D and the slot order, so a sum of them with
# integer scalars is the packed sum of their numerators: C big-int products
# in place of one dict update per target.  Such a sum is zero exactly when
# every digit is, which it decides as long as no digit can reach 2^(K-1).
#
# A kernel is itself such a sum.  Its annihilation terms (degree h4, factor,
# leftover) each need the creating exponential that takes the leftover to
# w, which depends on (kind, w, leftover) only, so a sweep packs that once
# (_created) and a kernel is the sum of factor * created leftover over its
# terms: one big-int multiply-add per term.  At cutoff 16 the relation and
# bracket sweeps read 13 565 annihilation terms over 6 564 kernels, and
# 1 108 created leftovers serve them all.

_SLOT_BITS = 64  # digit width a sweep starts at; it doubles where a sum could carry


def _slot_order(w: int) -> Tuple[tuple, Dict[int, int]]:
    order = _interned(tuple(map(_pack, _even_partitions(w, max(w, 2), False))))
    return order, {t: k for k, t in enumerate(order)}


_SLOTS = LazyTable(_slot_order)  # weight -> (its multisets in slot order, {multiset: slot})


def _uniform_den(data: VertexData, w: int) -> int:
    """D: the lcm of the creation denominators of the degrees up to w."""
    return lcm(*(_creation_terms(data.f0, data.f2, g4)[0] for g4 in range(0, w + 1, 2)))


class _Carry(Exception):
    """A packed digit could reach half the slot width."""


class _OffWeight(Exception):
    """A kernel with a target off its weight or a denominator that does not
    divide D: only a faulty engine makes one."""


def _created(fock, dens: LazyTable, width: int, key: Tuple[str, int, int]) -> Tuple[int, int]:
    """The creating exponential of kind that takes the packed leftover left
    to weight w, key (kind, w, left), as (one int of width-bit digits, its
    numerators over D(kind, w) at the slots of w of left plus each created
    multiset; its largest |numerator|).  Raises a bare _OffWeight, which
    the kernel reading it names, when a target does not weigh w or the
    creation denominator does not divide D."""
    kind, w, left = key
    data = fock.vertex[kind]
    _check_room(w)  # the mode sum of every target
    gden, terms = _creation_terms(data.f0, data.f2, w - _WEIGHTS[left])
    d = dens[kind, w]
    slots = _SLOTS[w][1]
    if d % gden:
        raise _OffWeight
    packed = top = 0
    for made, num in terms:
        slot = slots.get(left + made)
        if slot is None:
            raise _OffWeight
        packed += num << width * slot
        top = max(top, abs(num))
    scale = d // gden
    return packed * scale, top * scale


def _packed_kernel(
    fock, created: LazyTable, kind: str, arg: int, width: int, bits: list, multiset: int, annihilations: dict
) -> int:
    """fock._kernel(kind, arg, modes) of the multiset's modes as one int of
    width-bit digits over D(kind, w), w the multiset's weight plus arg: the
    sum of factor * created[kind, w, leftover] over the annihilation terms
    whose degree arg leaves room for, the terms read from annihilations
    under (kind, modes) and added there when missing.  bits[0] keeps the
    widest bound met on a numerator, sum |factor| * largest created
    numerator.  Raises _OffWeight(kind, arg, modes), which
    details.off_weight_kernel names, when an entry it reads is off its
    weight, and _Carry when a numerator could fill its digit."""
    modes = _MODES[multiset]
    terms = annihilations.get((kind, modes))
    if terms is None:
        data = fock.vertex[kind]
        terms = annihilations[kind, modes] = _annihilation_terms(modes, -data.f0, -data.f2)
    w = _WEIGHTS[multiset] + arg
    packed = bound = 0
    try:
        for h4, afac, left in terms:
            if arg + h4 >= 0:
                entry, top = created[kind, w, left]
                packed += afac * entry
                bound += abs(afac) * top
    except _OffWeight:
        raise _OffWeight(kind, arg, modes) from None
    b = bound.bit_length()
    if b >= width - 1:
        raise _Carry
    if b > bits[0]:
        bits[0] = b
    return packed


def _unpacked(table: LazyTable, arg: int, width: int, multiset: int) -> tuple:
    """(targets, numerators, sum of |numerators|) of the nonzero digits of
    the packed kernel table[multiset], read at the slots of its target
    weight; an _OffWeight from table passes through."""
    packed = table[multiset]
    order = _SLOTS[_WEIGHTS[multiset] + arg][0]
    half, mask = 1 << (width - 1), (1 << width) - 1
    targets, nums = [], []
    slot = 0
    while packed:
        n = packed & mask
        if n >= half:
            n -= mask + 1
        if n:
            targets.append(order[slot])
            nums.append(n)
        packed = (packed - n) >> width
        slot += 1
    return targets, nums, sum(map(abs, nums))


def _rows(scalars) -> Tuple[list, list, list]:
    """Scalars (a, b, d), each (a + b*i)/d, over their common denominator
    with their common content divided out: the real parts, the imaginary
    parts and max(|re|, |im|) of each."""
    den = lcm(*(d for _, _, d in scalars))
    re = [a * (den // d) for a, _, d in scalars]
    im = [b * (den // d) for _, b, d in scalars]
    content = gcd(*re, *im) or 1
    re = [x // content for x in re]
    im = [x // content for x in im]
    return re, im, [max(abs(x), abs(y)) for x, y in zip(re, im)]


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
        # vertex kinds by (kind, modes), kernels of the other kinds by (kind,
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
    # There are two ways to apply a vertex component.  Packed kernels
    # (_packed_kernel, which _LocalApplier.bucket_vanishes reads) serve the
    # relation and bracket zero tests: a kernel is one int, summed from the
    # sweep's annihilation expansions and created leftovers and re-read
    # about 20 times over those sweeps at cutoff 16, an inner image's
    # numerators scale whole outer kernels in C, and no target is decoded.
    # Annihilate, merge, create (_convolve) serves everything else: apply,
    # apply_batch, the quadratic sweep's first-level unit images and its
    # zero tests.  The leftovers of all the source monomials of a sum of one
    # kind meet before one creating exponential, and only the annihilation
    # expansions are kept, in a table the caller may hold across calls (dims
    # keeps one per charge level: at cutoff 32 it builds 2 041 expansions
    # and reads each about 9 times; at cutoff 2 the quadratic sums add
    # 117 697 leftover terms, and every merged leftover of a sum that
    # vanishes cancels before creation).  e1, dT, b0 and b2 are applied one monomial at a time
    # (_apply).  _kernel's vertex branch, one annihilation and one creation
    # per call, is the reference the tests and perfbench read through
    # _image_raw.

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
        """The kernel (den, packed targets, numerators) of kind at arg on
        modes."""
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

    def _convolve(self, kind: str, terms, expansions: Dict[tuple, tuple]):
        """Sum of w * kind(n4) vec over terms (w, n4, vec) of one vertex
        kind as Gaussian-integer numerators over one common denominator,
        nothing reduced: ({target charge: ({packed target: re}, {packed
        target: im})}, den).  Each source monomial is annihilated once; the
        leftovers of all the terms' monomials, scaled by their heads (each
        term's weight folded in), are merged as Gaussian-integer numerators
        per (target charge, target mode sum), where a leftover's own weight
        fixes the degree the creating exponential must add; each leftover
        is then convolved once with the creating exponential of that
        degree.  Annihilation expansions are looked up in (or added to)
        expansions under (kind, modes)."""
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

    def _apply(self, kind: str, n4: int, vec: FockVector, kernels: Dict[tuple, tuple]) -> FockVector:
        """Image of vec under e1, dT, b0 or b2, one monomial at a time, the
        kernels kept in kernels under (kind, argument, modes)."""
        out = FockVector()
        heads = {}
        for (modes, c), coeff in vec.terms.items():
            head = heads.get(c)
            if head is None:
                head = heads[c] = self._head(kind, n4, c)
            arg, base, c2 = head
            key = (kind, arg, modes)
            kernel = kernels.get(key)
            if kernel is None:
                kernel = kernels[key] = self._kernel(*key)
            den, targets, nums = kernel
            s = coeff * base
            a, b, d = s.a, s.b, s.d * den
            monos = _MONOS[c2]
            for t, n in zip(targets, nums):
                out.add_term(monos[t], _reduced(a * n, b * n, d))
        return out

    def _apply_whole(self, kind: str, n4: int, vec: FockVector, table: Dict[tuple, tuple]) -> FockVector:
        """Image of vec: vertex components by _convolve over the
        annihilation expansions in table, the other kinds by _apply over
        their kernels in table."""
        if kind in self.vertex:
            return _decoded(*self._convolve(kind, [(ONE, n4, vec)], table))
        return self._apply(kind, n4, vec, table)

    def apply(self, kind: str, n4: int, vec: FockVector) -> FockVector:
        return self._apply_whole(kind, n4, vec, self._mono_cache)

    def apply_batch(
        self, kind: str, n4: int, vectors: Sequence[FockVector], table: Dict[tuple, tuple]
    ) -> List[FockVector]:
        """Apply one operator to many vectors, its expansions or kernels
        kept in table, which the caller holds and drops."""
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
        for j, image in enumerate(self.apply_batch(kind, n4, [FockVector.unit(m) for m in src_monos], {})):
            for mono, coeff in image.terms.items():
                mat[index[mono], j] = coeff
        self._matrix_cache[key] = mat
        return mat

    def vacuum(self) -> FockVector:
        return FockVector.unit(VACUUM)


# --- one verification sweep's operator application ----------------------------


class _LocalApplier:
    """Operator application for one verification sweep (one per sweep), in
    tables local to the sweep, so the engine's cache does not grow with
    large mode ranges and everything is freed when the sweep returns.  No
    zero test decodes or reduces a target.

    - bucket_vanishes, the relation and bracket zero test, reads packed
      kernels: kernels holds {multiset: packed kernel} per (kind,
      argument), at one digit width, each summed from the expansion in
      annihilations and the entries of created, the packed creating
      exponential of each (kind, target weight, leftover) at that width;
      zero whether a (kind, argument)'s kernels are all empty on the
      multisets of a weight; and digits the inner operator's kernels on
      the current bucket's basis, unpacked.  The bracket sweep clears
      digits, annihilations and zero at each new bucket.  A kernel that
      reads an entry off its weight fails the test it meets, and
      off_weight keeps the first one's (kind, argument, modes) for
      details.off_weight_kernel.
    - sum_vanishes, the quadratic zero test, factorizes words of one outer
      kind through the annihilation expansions in expansions.
    - apply goes through TwistedFock._apply_whole on the same
      expansions, and unit_image keeps the images k(n)*m of the current
      bucket's basis monomials in units, which the quadratic sweep reads
      and clears at each new bucket.
    """

    def __init__(self, fock: TwistedFock):
        self.fock = fock
        self.expansions: Dict[tuple, tuple] = {}
        self.units: Dict[tuple, FockVector] = {}  # (kind, n4, mono) -> image of the unit vector
        # per sweep: heads by (kind, n4, source charge), D by (kind, target weight)
        self.heads = LazyTable(lambda key: fock._head(*key))
        self.dens = LazyTable(lambda key: _uniform_den(fock.vertex[key[0]], key[1]))
        self.annihilations: Dict[tuple, list] = {}  # (kind, modes) -> _annihilation_terms, what _packed_kernel reads
        self.width = _SLOT_BITS
        self.off_weight = None  # the first _OffWeight key a zero test met
        self._drop_kernels()

    def _drop_kernels(self) -> None:
        # the tables' makers hold no reference to self, so nothing here
        # waits for the cycle collector
        self.kernels: Dict[Tuple[str, int], LazyTable] = {}
        self.created = LazyTable(functools.partial(_created, self.fock, self.dens, self.width))
        self.digits: Dict[Tuple[str, int], LazyTable] = {}
        self.zero: Dict[Tuple[str, int, int], bool] = {}  # (kind, argument, weight) -> all its kernels empty
        self.bits = [0]  # the widest numerator bound met at this width

    def apply(self, kind: str, n4: int, vec: FockVector) -> FockVector:
        return self.fock._apply_whole(kind, n4, vec, self.expansions)

    def _table(self, kind: str, arg: int) -> LazyTable:
        table = self.kernels.get((kind, arg))
        if table is None:
            make = functools.partial(
                _packed_kernel, self.fock, self.created, kind, arg, self.width, self.bits, annihilations=self.annihilations
            )
            table = self.kernels[kind, arg] = LazyTable(make)
        return table

    def _digits(self, kind: str, arg: int) -> LazyTable:
        table = self.digits.get((kind, arg))
        if table is None:
            make = functools.partial(_unpacked, self._table(kind, arg), arg, self.width)
            table = self.digits[kind, arg] = LazyTable(make)
        return table

    def _check_width(self, bound: int) -> None:
        """A zero sum counts only while its digits, at most bound times the
        widest numerator, cannot carry."""
        if bound.bit_length() + self.bits[0] >= self.width:
            raise _Carry

    def bucket_vanishes(self, bucket: BucketKey, words) -> bool:
        """Whether sum w * kind(n4) inner e over words (w, kind, n4, inner),
        inner an operator (kind, n4) applied first or None, is zero on every
        basis monomial e of bucket, leaving out each word whose outer kernels
        are all empty at the weight it reads.  Where a packed sum could
        carry, the kernels and the zero table are dropped and the test is
        redone at twice the width.  A kernel off its weight fails the test,
        and the first one met is kept in off_weight."""
        while True:
            try:
                return self._vanishes_on(bucket, words)
            except _Carry:
                self.width *= 2
                self._drop_kernels()
            except _OffWeight as fault:
                if self.off_weight is None:
                    self.off_weight = fault.args
                return False

    def _vanishes_on(self, bucket: BucketKey, words) -> bool:
        # a word whose outer family is zero where it reads is left out once its
        # inner kernels are formed, so a fault in them still fails; the rest
        # get scalars over one common denominator, and the words sent to one
        # target charge and weight form a group that sums to zero alone
        heads, dens, zero = self.heads, self.dens, self.zero
        c, l = bucket
        weight = l - c * c
        basis = _SLOTS[weight][0]
        fast, keys, scalars = [], [], []
        for w, kind, n4, inner in words:
            a, b, d = w.a, w.b, w.d
            cin, win, den, digits = c, weight, 1, None
            if inner is not None:
                iarg, base, cin = heads[inner[0], inner[1], c]
                win += iarg
                a, b, d = a * base.a - b * base.b, a * base.b + b * base.a, d * base.d
                den = dens[inner[0], win]
                digits = self._digits(inner[0], iarg)
            arg, base, c2 = heads[kind, n4, cin]
            table = self._table(kind, arg)
            empty = zero.get((kind, arg, win))
            if empty is None:  # built kernel by kernel, so one off its weight raises here
                empty = zero[kind, arg, win] = not any(map(table.__getitem__, _SLOTS[win][0]))
            if empty:
                for e in basis if digits is not None else ():
                    digits[e]  # formed for its _OffWeight only
                continue
            a, b, d = a * base.a - b * base.b, a * base.b + b * base.a, d * base.d
            fast.append((table, digits))
            keys.append((c2, win + arg))
            scalars.append((a, b, d * den * dens[kind, win + arg]))
        if not fast:
            return True
        re, im, mags = _rows(scalars)
        checks = [
            tuple([x if k == key else 0 for k, x in zip(keys, part)] for part in (re, im)) for key in set(keys)
        ]
        norms = [1] * len(fast)  # per word kept, the largest sum of |inner numerators|
        for e in basis:
            sums = []
            for k, (table, digits) in enumerate(fast):
                if digits is None:
                    sums.append(table[e])
                    continue
                targets, nums, norm = digits[e]
                sums.append(sum(map(mul, nums, map(table.__getitem__, targets))))
                if norm > norms[k]:
                    norms[k] = norm
            for x, y in checks:
                if sum(map(mul, x, sums)) or sum(map(mul, y, sums)):
                    return False
        self._check_width(sum(map(mul, mags, norms)))
        return True

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
