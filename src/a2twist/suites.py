"""The verification suites of the operator identities, each returning a
Report: the mode relations among the component operators, the closed
bracket table, the quadratic sum families and the exponential-exchange
rule.  They run on the engine and the zero tests of fock.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

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
from .scalar import GaussianRational, ONE, ZERO, i_power


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
    bucket's basis vectors by packed zero tests, through one kernel table
    for the sweep, freed when the suite returns.  details.vacuous counts
    the checks whose target bucket does not exist; details.off_weight_kernel
    names the first kernel off its weight met (_packed_kernel), whose check
    fails."""
    rep = Report("linear-relations")
    local = _LocalApplier(fock)
    vacuous = 0
    for bucket in all_buckets(cutoff):
        c, l = bucket
        for n4 in range(l - cutoff, l + 5):
            live = bucket_exists(c + 1, l - n4)
            if n4 % 2 == 0:
                for key in ("a1", "a2"):
                    vacuous += not live
                    rep.record(
                        local.bucket_vanishes(bucket, [(ONE, key, n4, None)]),
                        {"relation": "half-integer-vanishing", "bucket": bucket, "n4": n4, "op": key},
                    )
                if n4 % 4 == 2:
                    vacuous += not bucket_exists(c + 2, l - n4)
                    rep.record(
                        local.bucket_vanishes(bucket, [(ONE, "a12", n4, None)]),
                        {"relation": "sum-vector-integer-only", "bucket": bucket, "n4": n4},
                    )
            else:
                sign = component_sign(n4)
                vacuous += not live
                words = [(ONE, "a2", n4, None), (GaussianRational(-sign), "a1", n4, None)]
                ok = local.bucket_vanishes(bucket, words)
                rep.record(
                    ok, {"relation": "component-coincidence", "bucket": bucket, "n4": n4, "sign": sign}
                )
    rep.details["vacuous"] = vacuous
    if local.off_weight:
        rep.details["off_weight_kernel"] = local.off_weight
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
    range.  details.vacuous counts the per-bucket checks whose target bucket
    does not exist; details.off_weight_kernel names the first kernel off
    its weight met (_packed_kernel), whose check fails.
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
    minus_one = GaussianRational(-1)
    vacuous = 0
    for bucket in all_buckets(cutoff):
        c, l = bucket
        for table in (local.digits, local.annihilations, local.zero):  # what only this bucket reads
            table.clear()

        def pair_ok(lk, m4, rk, n4, coeff) -> bool:
            # [lk(m4), rk(n4)] - coeff * a12(m4 + n4) on each basis vector
            words = [(ONE, lk, m4, (rk, n4)), (minus_one, rk, n4, (lk, m4))]
            if coeff:
                words.append((-coeff, "a12", m4 + n4, None))
            return local.bucket_vanishes(bucket, words)

        for n4 in odd:
            if l - n4 > cutoff:
                continue
            minus_sign = GaussianRational(-component_sign(n4))
            vacuous += not bucket_exists(c + 1, l - n4)
            ok = local.bucket_vanishes(bucket, [(ONE, "a2", n4, None), (minus_sign, "a1", n4, None)])
            rep.record(ok, {"bracket": ("component-coincidence", n4), "bucket": bucket})
        for m4 in odd:
            if l - m4 > cutoff:
                continue
            for n4 in odd:
                if n4 > m4:
                    continue  # antisymmetry makes the swapped pair the same check
                if l - n4 > cutoff or l - m4 - n4 > cutoff:
                    continue
                vacuous += not bucket_exists(c + 2, l - m4 - n4)
                ok = pair_ok("a1", m4, "a1", n4, bracket_coeff("a1", "a1", m4))
                rep.record(ok, {"bracket": ("a1", m4, "a1", n4), "bucket": bucket})
        for m4 in z_modes:
            if l - m4 > cutoff:
                continue
            for key, n4s in (("a1", odd), ("a12", z_modes)):
                for n4 in n4s:
                    if l - n4 > cutoff or l - m4 - n4 > cutoff:
                        continue
                    vacuous += not bucket_exists(c + 2 + fock.op_charge(key), l - m4 - n4)
                    ok = pair_ok("a12", m4, key, n4, ZERO)
                    rep.record(ok, {"bracket": ("a12", m4, key, n4), "bucket": bucket})
    rep.details["vacuous"] = vacuous
    if local.off_weight:
        rep.details["off_weight_kernel"] = local.off_weight
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
