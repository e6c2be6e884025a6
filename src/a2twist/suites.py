"""The verification suites of the operator identities, each returning a
Report: the mode relations among the component operators, the closed
bracket table, the quadratic sum families and the exponential-exchange
rule.  They run on the engine and the zero tests of fock.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .fock import (
    VACUUM,
    FockVector,
    TwistedFock,
    VertexData,
    _LocalApplier,
    _MONOS,
    _annihilation_terms,
    _check_room,
    _creation_terms,
    _pack,
    all_buckets,
    bucket_exists,
    enumerate_bucket,
)
from .lattice import LatticeVector, gram, nu
from .report import Report
from .scalar import GaussianRational, ONE, ZERO, i_power


# --- the packed sweeps ----------------------------------------------------------


def _packed_sweep(rep: Report, fock: TwistedFock, cutoff: int, checks) -> Report:
    """Record in rep the packed zero test (_LocalApplier.bucket_vanishes) of
    each (words, target bucket, failure) that checks(bucket) yields, on
    every bucket to cutoff, through one applier freed when the sweep
    returns.  details.vacuous counts the checks whose target bucket does not
    exist; details.off_weight_kernel names the first kernel off its weight
    met (_packed_kernel, _unpacked), whose check fails."""
    local = _LocalApplier(fock)
    vacuous = 0
    for bucket in all_buckets(cutoff):
        for words, target, failure in checks(bucket):
            vacuous += not bucket_exists(*target)
            rep.record(local.bucket_vanishes(bucket, words), failure)
    rep.details["vacuous"] = vacuous
    if local.off_weight:
        rep.details["off_weight_kernel"] = local.off_weight
    return rep


def check_linear_relations(fock: TwistedFock, cutoff: int) -> Report:
    """Vanishing and coincidence relations among the component operators:
    both simple-vector components vanish at half-integer modes, coincide up
    to the mode-class sign at quarter modes, and the highest-vector
    component vanishes off integer modes.  Each relation is checked on the
    bucket's basis vectors by a packed zero test (_packed_sweep)."""
    relations = []  # (words, charge step, n4, failure), n4 ascending
    for n4 in range(-cutoff, cutoff + 5):
        if n4 % 2 == 0:
            for key in ("a1", "a2"):
                failure = {"relation": "half-integer-vanishing", "n4": n4, "op": key}
                relations.append(([(ONE, key, n4, None)], 1, n4, failure))
            if n4 % 4 == 2:
                failure = {"relation": "sum-vector-integer-only", "n4": n4}
                relations.append(([(ONE, "a12", n4, None)], 2, n4, failure))
        else:
            sign = component_sign(n4)
            words = [(ONE, "a2", n4, None), (GaussianRational(-sign), "a1", n4, None)]
            relations.append((words, 1, n4, {"relation": "component-coincidence", "n4": n4, "sign": sign}))

    def checks(bucket):
        c, l = bucket
        for words, step, n4, failure in relations:
            if l - cutoff <= n4 <= l + 4:
                yield words, (c + step, l - n4), dict(failure, bucket=bucket)

    return _packed_sweep(Report("linear-relations"), fock, cutoff, checks)


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


def component_sign(n4: int) -> int:
    """Sign relating the two simple components at a quarter mode."""
    return 1 if n4 % 4 == 1 else -1


def check_brackets(fock: TwistedFock, cutoff: int, max_mode4: int = 12) -> Report:
    """Commutators of component operators against the closed bracket table.

    Verified exactly per bucket basis vector: the self-bracket family of
    the first component, centrality of the integer-mode component, and the
    mode-wise coincidence of the two simple components, each by one
    packed zero test per bucket.  The three remaining families follow from
    those by exact sign arithmetic, which is asserted over the whole mode
    range, ahead of the per-bucket checks (_packed_sweep).
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

    def commutator(lk, m4, rk, n4, coeff):
        # [lk(m4), rk(n4)] - coeff * a12(m4 + n4)
        words = [(ONE, lk, m4, (rk, n4)), (GaussianRational(-1), rk, n4, (lk, m4))]
        return words + [(-coeff, "a12", m4 + n4, None)] if coeff else words

    # (words, charge step, lowest mode, mode sum, bracket), in the order each
    # bucket checks them
    brackets = []
    for n4 in odd:
        words = [(ONE, "a2", n4, None), (GaussianRational(-component_sign(n4)), "a1", n4, None)]
        brackets.append((words, 1, n4, n4, ("component-coincidence", n4)))
    for m4 in odd:
        for n4 in odd:
            if n4 <= m4:  # antisymmetry makes the swapped pair the same check
                words = commutator("a1", m4, "a1", n4, bracket_coeff("a1", "a1", m4))
                brackets.append((words, 2, n4, m4 + n4, ("a1", m4, "a1", n4)))
    for m4 in z_modes:
        for key, step, n4s in (("a1", 3, odd), ("a12", 4, z_modes)):
            for n4 in n4s:
                words = commutator("a12", m4, key, n4, ZERO)
                brackets.append((words, step, min(m4, n4), m4 + n4, ("a12", m4, key, n4)))

    def checks(bucket):
        c, l = bucket
        for words, step, low, total, bracket in brackets:
            if l - low <= cutoff and l - total <= cutoff:
                yield words, (c + step, l - total), {"bracket": bracket, "bucket": bucket}

    return _packed_sweep(rep, fock, cutoff, checks)


# --- quadratic relation sums ------------------------------------------------

# The truncated quadratic relation generators by kind, with two simple
# factors (R1), two central ones (R12) or one of each (R121): kind ->
# (least quarter-degree, step, number of simple factors).  A kind's families
# live at the quarter-degrees least + k * step, k any integer.
R1 = "uu"
R12 = "zz"
R121 = "zu"
GENERATORS = {R1: (2, 2, 2), R12: (8, 4, 0), R121: (5, 2, 1)}

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
    """The degree-t quadratic relation families through their finite
    windows, the one place they are written: (family, generator kind,
    words) for each kind of GENERATORS with a family at t4, each word
    (weight, outer kind, left index, (right kind, right index)) as the zero
    tests of _LocalApplier read it, each product once, its left kind the
    family's.  ucap and zcap are the largest live quarter indices of the
    charge-1 and charge-2 components on the source bucket; envelope.make_R0
    reads the generators off the window of negative indices."""
    for kind, (least, step, _) in GENERATORS.items():
        if (t4 - least) % step:
            continue
        if kind == R1:
            # paired simple-component sums, indices n1 + n2 + 1/2 = -t; a
            # product inside the window comes from two neighbouring pairs,
            # and its weights add (to twice either, so none cancels).  Left
            # indices descend: that orders make_R0's terms, and the
            # presentation's echelon bases number their columns in it
            pairs = [
                (a4, -t4 - 2 - a4) for a4 in range(ucap, -t4 - 3 - ucap, -1) if a4 % 2 and -t4 - 2 - a4 <= ucap
            ]
            for fam, (lk, rk, sign, phased) in UU_FAMILIES.items():
                words: Dict[Tuple[int, int], GaussianRational] = {}
                for a4, b4 in pairs:
                    w = i_power(-b4) if phased else ONE
                    for pair, x in (((a4 + 2, b4), w), ((a4, b4 + 2), w.scale_frac(Fraction(sign)))):
                        words[pair] = words[pair] + x if pair in words else x
                yield fam, kind, [(w, lk, a4, (rk, b4)) for (a4, b4), w in words.items() if not w.is_zero()]
        elif kind == R12:
            # central-central sums, m1 + m2 = -t
            ms = [m4 for m4 in range(-t4 - zcap, zcap + 1) if m4 % 4 == 0 and -t4 - m4 <= zcap]
            yield "zz", kind, [(ONE, "a12", m4, ("a12", -t4 - m4)) for m4 in ms]
        else:
            # central-simple sums, m + n = -t
            ns = [n4 for n4 in range(-t4 - zcap, ucap + 1) if n4 % 2 and (-t4 - n4) % 4 == 0 and -t4 - n4 <= zcap]
            for rk in ("a1", "a2"):
                yield "z" + rk, kind, [(ONE, "a12", -t4 - n4, (rk, n4)) for n4 in ns]


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
    the swap is exact).  Each sum is decided on every basis vector of the
    bucket by one factorized zero test (_LocalApplier.sum_vanishes).  A sum
    whose lowest right index needs an intermediate bucket beyond
    max_intermediate is skipped and counted, so every enumerated sum is
    either checked or counted.
    """
    rep = Report("quadratic-relations")
    skipped = 0
    local = _LocalApplier(fock)
    for bucket in all_buckets(vec_cutoff):
        c, l = bucket
        basis = enumerate_bucket(*bucket)
        ucap = l - (c + 1) * (c + 1)  # largest live quarter index for charge-1 components
        zcap = l - (c + 2) * (c + 2)
        for t4 in range(-8, t4_max + 1):
            for fam, _, words in _quadratic_sums(t4, ucap, zcap):
                if words and l - min(b4 for _, _, _, (_, b4) in words) > max_intermediate:
                    skipped += len(basis)
                    continue
                for mono, ok in zip(basis, local.sum_vanishes(bucket, words)):
                    rep.record(ok, {"family": fam, "t4": t4, "bucket": bucket, "monomial": repr(mono)})
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
