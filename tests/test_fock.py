import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, isqrt, lcm

import pytest

import a2twist.fock as fock_module
import a2twist.suites as suites_module
from a2twist.fock import (
    GRAM_NORM,
    FockVector,
    TwistedFock,
    _MODES,
    _LocalApplier,
    _pack,
    all_buckets,
    bucket_exists,
    enumerate_bucket,
    monomial_qweight,
    sigma_factor,
)
from a2twist.groups import HAT_LNU, CosetModel, section
from a2twist.lattice import ALPHA1, ALPHA2, THETA, LatticeVector, gram, project_lattice
from a2twist.scalar import GaussianRational, ONE, ZERO, i_power
from a2twist.suites import (
    Report,
    bracket_coeff,
    check_brackets,
    check_exchange_identity,
    check_linear_relations,
    check_quadratic_relations,
    component_sign,
    exchange_series,
    self_bracket_coeff,
)


@pytest.fixture(scope="module")
def fock():
    return TwistedFock()


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def naive_partitions(n):
    # reference partition count for bucket sizes
    if n == 0:
        return 1
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def test_bucket_enumeration_counts():
    assert enumerate_bucket(0, 0) == (((), 0),)
    assert enumerate_bucket(1, 1) == (((), 1),)
    assert len(enumerate_bucket(0, 8)) == 5
    for l in range(0, 13, 2):
        assert len(enumerate_bucket(0, l)) == naive_partitions(l // 2)
    assert enumerate_bucket(2, 3) == ()  # parity mismatch
    assert enumerate_bucket(3, 5) == ()  # below ground


def test_monomial_weights():
    assert monomial_qweight(((), 3)) == 9
    assert monomial_qweight(((6, 4, 2), 1)) == 13
    for mono in enumerate_bucket(2, 10):
        assert monomial_qweight(mono) == 10
        modes, c = mono
        assert c == 2
        assert all(q % 2 == 0 for q in modes)


def test_sigma_values():
    assert sigma_factor(ALPHA1) == gr(1, -1)
    assert sigma_factor(THETA) == gr(0, 4)


def test_heisenberg_contractions(fock):
    vac = fock.vacuum()
    up = fock.apply("b0", -4, vac)
    assert fock.apply("b0", 4, up) == vac.scale(gr(2))
    up2 = fock.apply("b2", -2, vac)
    assert fock.apply("b2", 2, up2) == vac.scale(gr(3))
    assert fock.apply("b0", 4, vac).is_zero()
    with pytest.raises(ValueError):
        fock.apply("b0", -2, vac)


def test_heisenberg_commutators_as_matrices(fock):
    # [beta(m), beta'(n)] = <beta, beta'> m delta_{m+n,0}
    norms = {"b0": 2, "b2": 6}
    for bucket in ((0, 0), (1, 5), (0, 6)):
        basis = [FockVector.unit(m) for m in enumerate_bucket(*bucket)]
        for kind, modes in (("b0", (-8, -4, 4, 8)), ("b2", (-6, -2, 2, 6))):
            for m4 in modes:
                for n4 in modes:
                    for v in basis:
                        lhs = fock.apply(kind, m4, fock.apply(kind, n4, v)) - fock.apply(
                            kind, n4, fock.apply(kind, m4, v)
                        )
                        if m4 + n4 == 0:
                            want = v.scale(gr(Fraction(norms[kind] * m4, 4)))
                        else:
                            want = FockVector()
                        assert lhs == want


def test_vertex_frozen_values(fock):
    vac = fock.vacuum()
    coset = lambda c: FockVector.unit(((), c))
    assert fock.apply("a1", -1, vac) == coset(1).scale(gr(Fraction(1, 4), Fraction(-1, 4)))
    assert fock.apply("a12", -4, vac) == coset(2)
    assert fock.apply("a1", -1, fock.apply("a1", -3, vac)) == coset(2).scale(gr(Fraction(3, 8)))
    assert fock.apply("a1", -3, fock.apply("a1", -1, vac)) == coset(2).scale(gr(Fraction(-1, 8)))
    assert fock.apply("a1", -1, fock.apply("a1", -1, vac)).is_zero()
    assert fock.apply("a1", -3, vac) == FockVector(
        {((2,), 1): gr(Fraction(1, 4), Fraction(-1, 4))}
    )


def test_vertex_images_stay_graded(fock):
    for bucket in ((0, 0), (1, 3), (2, 6), (-1, 5)):
        for key in ("a1", "a2", "a12"):
            for n4 in range(-7, 8):
                tgt = fock.target_bucket(key, n4, bucket)
                for mono in enumerate_bucket(*bucket):
                    img = fock.apply(key, n4, FockVector.unit(mono))
                    assert img.buckets() <= {tgt}
                    if not bucket_exists(*tgt):
                        assert img.is_zero()


def test_linear_relations_small(fock):
    rep = check_linear_relations(fock, 10)
    assert rep.passed
    assert rep.checked > 100
    # component coincidence, explicit instance
    b = (0, 0)
    assert fock.matrix("a2", -1, b).entries == {pos: -x for pos, x in fock.matrix("a1", -1, b).entries.items()}
    assert fock.matrix("a2", -3, b).entries == fock.matrix("a1", -3, b).entries
    assert fock.matrix("a1", -2, b).entries == {}
    assert fock.matrix("a12", -2, b).entries == {}


def test_self_bracket_coefficient_classes():
    assert self_bracket_coeff(-3) == gr(Fraction(-1, 2))  # index in the 1/4 class
    assert self_bracket_coeff(-1) == gr(Fraction(1, 2))  # index in the 3/4 class
    assert self_bracket_coeff(1) == gr(Fraction(-1, 2))


def records_sum(fock, terms, kernels):
    """Sum of w * kind(n4) vec over terms (w, kind, n4, vec) as
    Gaussian-integer numerators over one common denominator, nothing
    reduced: ({target charge: ({packed target: re}, {packed target: im})},
    den), summed one per-monomial kernel at a time.  Kernels are looked up
    in (or added to) kernels under (kind, argument, modes)."""
    scaled = []
    den = 1
    for w, kind, n4, vec in terms:
        heads = {}
        for (modes, c), coeff in vec.terms.items():
            if c not in heads:
                arg, base, c2 = fock._head(kind, n4, c)
                heads[c] = (arg, w * base, c2)
            arg, s, c2 = heads[c]
            key = (kind, arg, modes)
            if key not in kernels:
                kernels[key] = fock._kernel(*key)
            kden, targets, nums = kernels[key]
            # coeff * s over coeff.d * s.d * kden, unreduced
            d = coeff.d * s.d * kden
            scaled.append((coeff.a * s.a - coeff.b * s.b, coeff.a * s.b + coeff.b * s.a, d, c2, targets, nums))
            den = lcm(den, d)
    accs = {}
    for a, b, d, c2, targets, nums in scaled:
        parts = accs.setdefault(c2, ({}, {}))
        for x, acc in ((a, parts[0]), (b, parts[1])):
            if x:
                x *= den // d
                for tgt, n in zip(targets, nums):
                    acc[tgt] = acc.get(tgt, 0) + x * n
    return accs, den


RECORDS = weakref.WeakKeyDictionary()  # _LocalApplier -> the kernels its records reference reads


def vanishes(local, terms):
    """The records reference zero test: whether sum w * kind(n4) vec over
    terms (w, kind, n4, vec) is zero, decided on the unreduced integer
    numerators records_sum adds up from kernels kept per _LocalApplier."""
    return fock_module._all_zero(records_sum(local.fock, terms, RECORDS.setdefault(local, {}))[0])


def aliased_brackets(fock, cutoff, max_mode4):
    """The (a1, a2), (a2, a1) and (a2, a2) families of the bracket table,
    which check_brackets derives from the (a1, a1) family by sign
    arithmetic, recomputed as operator composites on each basis vector of
    every bucket, through one sweep's _LocalApplier."""
    rep = Report("bracket-table-aliased")
    odd = [n for n in range(-max_mode4, max_mode4 + 1) if n % 2]
    local = _LocalApplier(fock)
    for bucket in all_buckets(cutoff):
        l = bucket[1]
        local.units.clear()
        for left, right in (("a1", "a2"), ("a2", "a1"), ("a2", "a2")):
            for m4 in odd:
                for n4 in odd:
                    if (left == right and n4 > m4) or max(l - m4, l - n4, l - m4 - n4) > cutoff:
                        continue
                    # [left(m4), right(n4)] - coeff * a12(m4 + n4) on each basis vector
                    coeff = bracket_coeff(left, right, m4)
                    ok = all(
                        vanishes(
                            local,
                            [
                                (ONE, left, m4, local.unit_image(right, n4, mono)),
                                (gr(-1), right, n4, local.unit_image(left, m4, mono)),
                                (-coeff, "a12", m4 + n4, FockVector.unit(mono)),
                            ]
                        )
                        for mono in enumerate_bucket(*bucket)
                    )
                    rep.record(ok, {"bracket": (left, m4, right, n4), "bucket": bucket})
    return rep


def test_bracket_table_small(fock):
    assert check_brackets(fock, 10, max_mode4=8).passed
    rep = aliased_brackets(fock, 10, max_mode4=8)
    assert rep.passed and rep.checked > 100
    # explicit commutator instance on the vacuum
    vac = fock.vacuum()
    lhs = fock.apply("a1", -1, fock.apply("a1", -3, vac)) - fock.apply(
        "a1", -3, fock.apply("a1", -1, vac)
    )
    assert lhs == fock.apply("a12", -4, vac).scale(gr(Fraction(1, 2)))
    mixed = fock.apply("a1", -1, fock.apply("a2", -7, vac)) - fock.apply(
        "a2", -7, fock.apply("a1", -1, vac)
    )
    assert mixed == fock.apply("a12", -8, vac).scale(gr(Fraction(1, 2)))
    central = fock.apply("a12", -4, fock.apply("a1", -1, vac)) - fock.apply(
        "a1", -1, fock.apply("a12", -4, vac)
    )
    assert central.is_zero()


def test_quadratic_relations_small(fock):
    rep = check_quadratic_relations(fock, 8, t4_max=12, max_intermediate=16)
    assert rep.passed
    assert rep.checked > 500


def quadratic_sums_per_monomial(t4_max):
    """Sums the quadratic suite enumerates per basis monomial over t4 from -8:
    four uu families at even t4, zz at t4 = 0 mod 4, za1 and za2 at odd t4."""
    return sum(4 if t4 % 2 == 0 else 2 for t4 in range(-8, t4_max + 1)) + len(range(-8, t4_max + 1, 4))


@pytest.mark.parametrize(
    "cutoff, kwargs",
    [(2, {}), (8, {}), (4, {"t4_max": 12, "max_intermediate": 16})],
    ids=["cutoff2", "cutoff8", "cutoff4-t4max12"],
)
def test_quadratic_sums_are_all_checked_or_counted(fock, cutoff, kwargs):
    rep = check_quadratic_relations(fock, cutoff, **kwargs)
    assert rep.passed
    monomials = sum(len(enumerate_bucket(*bucket)) for bucket in all_buckets(cutoff))
    assert quadratic_sums_per_monomial(24) == 109
    want = quadratic_sums_per_monomial(kwargs.get("t4_max", 24)) * monomials
    assert rep.checked + rep.details["skipped_vector_sums"] == want


def test_quadratic_truncation_matches_on_vacuum(fock):
    # truncated sum at degree one kills the vacuum; computed via the windowed
    # evaluation in the checker and directly here
    vac = fock.vacuum()
    total = FockVector()
    pairs = [(-1, -5), (-3, -3), (-5, -1)]
    for a4, b4 in pairs:
        total = total + fock.apply("a1", a4 + 2, fock.apply("a1", b4, vac))
        total = total + fock.apply("a1", a4, fock.apply("a1", b4 + 2, vac))
    assert total.is_zero()


def test_exchange_identity(fock):
    rep = check_exchange_identity(fock)
    assert rep.passed
    assert rep.checked > 50


def test_exchange_series_for_minus_beta_is_the_inverse():
    # negating beta negates every exponent, so the two series multiply to 1;
    # the grid meets exponents of both signs, so factors are both multiplied
    # in and divided out
    order = 12
    grid = [LatticeVector(m, n) for m in range(-3, 4) for n in range(-3, 4)]
    for alpha in grid:
        for beta in grid:
            f, g = exchange_series(alpha, beta, order), exchange_series(alpha, -beta, order)
            product = [sum((f[j] * g[k - j] for j in range(k + 1)), ZERO) for k in range(order + 1)]
            assert product == [ONE] + [ZERO] * order, (alpha, beta)


def test_raising_operator(fock):
    vac = fock.vacuum()
    coset1 = FockVector.unit(((), 1))
    assert fock.apply("e1", 0, vac) == coset1
    # e . 1 = (4 / sigma) x(-1/4) . 1
    assert fock.apply("a1", -1, vac).scale(gr(4) * sigma_factor(ALPHA1).inverse()) == coset1
    # injectivity on whole buckets
    for bucket in all_buckets(8):
        m = fock.matrix("e1", 0, bucket)
        assert m.rank() == len(enumerate_bucket(*bucket))


def test_raising_intertwines_components(fock):
    # e x_a(m) = C(a, -a1) x_a(m - <P0 a, a1>) e, on each basis monomial
    for bucket in ((0, 0), (1, 3), (0, 4)):
        for key, c_factor, shift in (("a1", ONE, 2), ("a2", gr(-1), 2), ("a12", gr(-1), 4)):
            for m4 in (-5, -4, -1, 1):
                if key == "a12" and m4 % 4:
                    continue
                for mono in enumerate_bucket(*bucket):
                    v = FockVector.unit(mono)
                    lhs = fock.apply("e1", 0, fock.apply(key, m4, v))
                    rhs = fock.apply(key, m4 - shift, fock.apply("e1", 0, v)).scale(c_factor)
                    assert lhs == rhs, (bucket, key, m4, mono)


def test_lowering_operator(fock):
    vac = fock.vacuum()
    assert fock.apply("dT", 0, vac) == vac
    v3 = fock.apply("a1", -3, vac)
    assert fock.apply("dT", 0, v3) == fock.apply("a1", -1, vac).scale(gr(0, -1))
    # two-factor example: z(-2) u(-5/4) . 1 maps to -i z(-1) u(-3/4) . 1
    w = fock.apply("a12", -8, fock.apply("a1", -5, vac))
    want = fock.apply("a12", -4, fock.apply("a1", -3, vac)).scale(gr(0, -1))
    assert fock.apply("dT", 0, w) == want
    # surjectivity onto target buckets
    for bucket in all_buckets(8):
        c, l = bucket
        tgt = fock.target_bucket("dT", 0, bucket)
        if c >= 0 and bucket_exists(*tgt):
            m = fock.matrix("dT", 0, bucket)
            assert m.rank() == len(enumerate_bucket(*tgt))


def test_lowering_kills_raising_image_on_subspace(fock):
    # the composite vanishes on the subspace generated from the vacuum (not
    # on whole buckets: excited vectors outside it are counterexamples)
    from a2twist.analyzer import PrincipalSubspace

    space = PrincipalSubspace(fock, 9)
    for basis in space.bases.values():
        for v in basis:
            assert fock.apply("dT", 0, fock.apply("e1", 0, v)).is_zero()
    outside = FockVector.unit(((2,), 0))
    assert not fock.apply("dT", 0, fock.apply("e1", 0, outside)).is_zero()


# --- operator images against a direct Fraction sum ----------------------------


def even_multisets(total, top=None):
    """Multisets of even positive parts summing to total, parts descending."""
    if total == 0:
        yield ()
        return
    top = total if top is None else top
    for p in range(min(top, total) // 2 * 2, 0, -2):
        for rest in even_multisets(total - p, p):
            yield (p,) + rest


def contractions(modes, f):
    """(h4, factor, leftover) per choice of how many quanta of each size the
    annihilating exponential removes; f maps a mode class to its factor."""
    counts = sorted(Counter(modes).items(), reverse=True)
    for js in product(*(range(k + 1) for _, k in counts)):
        factor, h4, leftover = Fraction(1), 0, []
        for (q, k), j in zip(counts, js):
            factor *= comb(k, j) * Fraction(f[q % 4]) ** j
            h4 += j * q
            leftover += [q] * (k - j)
        if factor:
            yield h4, factor, leftover


def lattice_vertex(kind, n4, c):
    """A vertex component on charge c from the lattice alone, not from the
    engine's vertex data: (vector, kappa per boson family, prefactor, the
    quarter-degree the creating exponential adds beyond what the
    annihilating one removes)."""
    vec = {"a1": ALPHA1, "a2": ALPHA2, "a12": THETA}[kind]
    p0 = project_lattice(vec, 0)
    norm = gram(vec, vec)
    kappa = {0: p0.m, 2: project_lattice(vec, 2).m}
    prefactor = GaussianRational(4) ** (-(norm // 2)) * sigma_factor(vec)
    # diagonal x-exponent: <P0 v, c a1> + <P0 v, P0 v>/2 - <v, v>/2
    diag = c * gram(p0, ALPHA1) + gram(p0, p0) / 2 - Fraction(norm, 2)
    want = -n4 - 2 * norm - 4 * diag
    assert want.denominator == 1
    return vec, kappa, prefactor, int(want)


def direct_image(fock, kind, n4, mono):
    """(base, {target: weight}) summed term by term in Fractions."""
    modes, c = mono
    acc = {}
    if kind == "dT":
        if c < 0:
            return ONE, acc
        for h4, factor, leftover in contractions(modes, {0: -1, 2: -1}):
            if h4 == 2 * c:
                acc[(tuple(leftover), c)] = factor
        return i_power(c), acc
    vec, kappa, prefactor, want = lattice_vertex(kind, n4, c)
    phase, c2 = fock.coset.act_on_charge(section(vec, HAT_LNU), c)
    for h4, afac, leftover in contractions(modes, {0: -2 * kappa[0], 2: -6 * kappa[2]}):
        for parts in even_multisets(want + h4) if want + h4 >= 0 else ():
            cfac = Fraction(1)
            for q, j in Counter(parts).items():
                cfac *= (4 * kappa[q % 4] / q) ** j / factorial(j)
            if cfac:
                tgt = (tuple(sorted(leftover + list(parts), reverse=True)), c2)
                acc[tgt] = acc.get(tgt, 0) + afac * cfac
    return prefactor * phase, {t: w for t, w in acc.items() if w}


def test_integer_images_match_direct_fraction_sum(fock):
    for bucket in ((0, 0), (0, 8), (1, 9), (-1, 11), (2, 12), (1, 13)):
        for mono in enumerate_bucket(*bucket):
            for kind, n4 in [("dT", 0)] + [(k, n) for k in ("a1", "a2", "a12") for n in range(-11, 10)]:
                base, items = fock._image_raw(kind, n4, mono)
                want_base, want = direct_image(fock, kind, n4, mono)
                # the base is the direct one over a positive integer denominator
                ratio = base * want_base.inverse()
                assert ratio.a == 1 and ratio.b == 0, (kind, n4, mono)
                assert all(type(n) is int for _, n in items)
                assert len(items) == len(want)
                got = {tgt: base.scale_frac(n) for tgt, n in items}
                assert got == {tgt: want_base.scale_frac(w) for tgt, w in want.items()}, (kind, n4, mono)


# --- the shared-denominator application kernel --------------------------------

KERNEL_OPS = (
    [("a1", n) for n in range(-7, 8, 2)]
    + [("a2", n) for n in range(-7, 8, 2)]
    + [("a12", n) for n in range(-8, 9, 4)]
    + [("b0", n) for n in (-8, -4, 4, 8)]
    + [("b2", n) for n in (-6, -2, 2, 6)]
    + [("e1", 0), ("dT", 0)]
)


def reference_apply(fock, kind, n4, vec):
    """Image terms summed one Q(i) product at a time, zero sums left out."""
    acc = {}
    for mono, coeff in vec.terms.items():
        base, items = fock._image_raw(kind, n4, mono)
        for tgt, n in items:
            acc[tgt] = acc.get(tgt, GaussianRational()) + coeff * base * n
    return {tgt: c for tgt, c in acc.items() if not c.is_zero()}


def matrix_apply(fock, kind, n4, vec):
    """The image of a vector as its combination of matrix columns, bucket by
    bucket."""
    out = FockVector()
    for src in sorted(vec.buckets()):
        src_monos = enumerate_bucket(*src)
        tgt_monos = enumerate_bucket(*fock.target_bucket(kind, n4, src))
        for (r, j), val in fock.matrix(kind, n4, src).entries.items():
            coeff = vec.terms.get(src_monos[j])
            if coeff is not None:
                out.add_term(tgt_monos[r], val * coeff)
    return out


def all_paths(fock, kind, n4, vectors, local=None):
    """The image of each vector through apply (cold and cached), apply_batch,
    _LocalApplier.apply (a fresh one unless local is given) and the columns
    of matrix."""
    local = local or _LocalApplier(fock)
    cold = [fock.apply(kind, n4, v) for v in vectors]
    return {
        "apply": cold,
        "apply-cached": [fock.apply(kind, n4, v) for v in vectors],
        "apply_batch": fock.apply_batch(kind, n4, vectors, {}),
        "local": [local.apply(kind, n4, v) for v in vectors],
        "matrix": [matrix_apply(fock, kind, n4, v) for v in vectors],
    }


def check_kernel_against_term_sum(fock):
    """Every application path against reference_apply on seeded random
    vectors with mixed denominators, over KERNEL_OPS: three vectors in each
    of four buckets, then one over two charges, the sum of a vector in
    (0, 8) and one in (1, 9)."""
    local = _LocalApplier(fock)
    rng = random.Random(5)
    dens = (1, 2, 3, 4, 5, 7, 12)
    inputs = []
    for bucket in ((0, 8), (1, 9), (-1, 11), (2, 12)):
        monos = enumerate_bucket(*bucket)
        vectors = []
        for _ in range(3):
            terms = {}
            for mono in rng.sample(monos, min(len(monos), 4)):
                re = Fraction(rng.randint(-9, 9), rng.choice(dens))
                terms[mono] = gr(re, Fraction(rng.randint(1, 9), rng.choice(dens)))
            vectors.append(FockVector(terms))
        inputs.append(vectors)
    both = inputs[0][0] + inputs[1][0]
    assert both.buckets() == {(0, 8), (1, 9)}
    inputs.append([both])
    for vectors in inputs:
        assert len({c.d for v in vectors for c in v.terms.values()}) > 1  # mixed denominators
        for kind, n4 in KERNEL_OPS:
            want = [reference_apply(fock, kind, n4, v) for v in vectors]
            for path, got in all_paths(fock, kind, n4, vectors, local).items():
                assert [g.terms for g in got] == want, (path, vectors[0].buckets(), kind, n4)


def test_shared_denominator_kernel_matches_term_sum():
    check_kernel_against_term_sum(TwistedFock())


def test_weights_beyond_64_bits_stay_exact(monkeypatch):
    created = fock_module._creation_terms
    wide = (-(2**63), 2**63, 2**63 + 1, -(2**64) - 3, 3 * 2**70)  # the first fits in 64 bits

    def widened(f0, f2, g4):
        den, terms = created(f0, f2, g4)
        return den, tuple((parts, n * wide[k % len(wide)]) for k, (parts, n) in enumerate(terms))

    # the factorized path, the one-monomial kernels and the reference
    # (_image_raw) all read the same widened creation numerators
    monkeypatch.setattr(fock_module, "_creation_terms", widened)
    fock = TwistedFock()
    check_kernel_against_term_sum(fock)
    # apply carries the wide numerators into its coefficients
    img = fock.apply("a1", -7, FockVector.unit(enumerate_bucket(1, 9)[0]))
    assert max(max(abs(c.a), abs(c.b), c.d).bit_length() for c in img.terms.values()) > 64


def test_shared_denominator_kernel_drops_cancelled_targets():
    fock = TwistedFock()
    kind, n4 = "a1", -3
    monos = enumerate_bucket(0, 8)
    images = {m: fock._image_raw(kind, n4, m) for m in monos}
    # two sources sharing a target, weighted so that target cancels exactly
    m1, m2, tgt = next(
        (m1, m2, t)
        for m1 in monos
        for m2 in monos
        if m1 < m2
        for t in set(dict(images[m1][1])) & set(dict(images[m2][1]))
        if len(set(dict(images[m1][1])) | set(dict(images[m2][1]))) > 1
    )

    def at(m):
        base, items = images[m]
        return base.scale_frac(Fraction(dict(items)[tgt], 3))

    vec = FockVector({m1: at(m2), m2: -at(m1)})
    want = reference_apply(fock, kind, n4, vec)
    assert tgt not in want and want
    for path, (got,) in all_paths(fock, kind, n4, [vec]).items():
        assert tgt not in got.terms, path
        assert got.terms == want, path


def test_merged_leftovers_add_only_within_one_degree_and_charge():
    # apply, apply_batch and matrix annihilate each monomial of a vector,
    # merge the leftovers per (target charge, degree) and create once per
    # degree; these vectors make that merge add terms, and keep apart the
    # same leftover at two degrees or two charges
    fock = TwistedFock()
    data = fock.vertex["a1"]

    def leftovers_at(modes, h4):
        h4s, lefts, _ = fock_module._expansion(modes, -data.f0, -data.f2)
        return {left for h, left in zip(h4s, lefts) if h == h4}

    two = _pack((2,))
    # (2,) is left by (4, 2) and (2, 2, 2) at degree 4, by (2, 2) at degree 2
    assert two in leftovers_at((4, 2), 4) and two in leftovers_at((2, 2, 2), 4)
    assert two in leftovers_at((2, 2), 2)
    third, fifth, seventh = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    vectors = [
        # one degree: the two leftovers' terms add (imaginary, mixed denominators)
        FockVector({((4, 2), 0): gr(0, third), ((2, 2, 2), 0): gr(0, -5 * seventh)}),
        FockVector({((4, 2), 0): gr(third, 2), ((2, 2, 2), 0): gr(-1, fifth), ((6,), 0): gr(0, 1)}),
        # two degrees: the same leftover must not merge
        FockVector({((4, 2), 0): gr(0, 2 * third), ((2, 2), 0): gr(0, -fifth)}),
        FockVector({((4, 2), 0): gr(seventh), ((2, 2), 0): gr(0, fifth), ((2,), 0): gr(3, -third)}),
        # two charges: the same leftover lands in two target charges
        FockVector({((4, 2), 0): gr(0, fifth), ((4, 2), 1): gr(0, -third), ((2, 2), 1): gr(0, seventh)}),
        FockVector({((4, 2), 0): gr(2, fifth), ((2, 2, 2), 0): gr(0, 1), ((4, 2), -1): gr(-seventh, third)}),
    ]
    assert {c.d for v in vectors for c in v.terms.values()} >= {3, 5, 7}
    for kind in ("a1", "a2", "a12"):
        for n4 in range(-9, 6):
            want = [reference_apply(fock, kind, n4, v) for v in vectors]
            for path, got in all_paths(fock, kind, n4, vectors).items():
                assert [g.terms for g in got] == want, (path, kind, n4)
    # the same-degree merge does add: both monomials reach a common target
    alone = [reference_apply(fock, "a1", -3, FockVector({m: c})) for m, c in vectors[0].terms.items()]
    assert set(alone[0]) & set(alone[1])


# --- packed mode multisets ----------------------------------------------------


def merge(a, b):
    """Reference merge of two quanta tuples: plain sort, descending."""
    return tuple(sorted(a + b, reverse=True))


def test_packed_multisets_round_trip():
    for l in range(25):
        for c in range(-isqrt(l), isqrt(l) + 1):
            for modes, _ in enumerate_bucket(c, l):
                got = _MODES[_pack(modes)]
                assert got == modes
                assert _MODES[_pack(modes)] is got


def test_packed_sum_is_the_sorted_merge():
    rng = random.Random(6)
    for _ in range(400):
        a, b = [], []
        for side in (a, b):
            budget = rng.choice((12, 60, 250))
            while budget >= 2:
                q = rng.randrange(2, min(budget, 40) + 1, 2)
                side.append(q)
                budget -= q
        a, b = merge(tuple(a), ()), merge(tuple(b), ())
        assert _MODES[_pack(a) + _pack(b)] == merge(a, b)
    # the largest multiplicity a digit holds
    assert _MODES[_pack((2,) * 120) + _pack((2,) * 135)] == (2,) * 255


def test_multiplicity_256_raises(fock):
    with pytest.raises(OverflowError):
        _pack((2,) * 256)
    with pytest.raises(OverflowError):
        _pack((6, 4) + (2,) * 256)
    # a merge inside an image kernel that would reach 256
    assert fock._image_raw("b2", -2, ((2,) * 254, 0))[1] == ((((2,) * 255, 0), 1),)
    with pytest.raises(OverflowError):
        fock._image_raw("b2", -2, ((2,) * 255, 0))


def test_multiplicity_guard_stops_apply(monkeypatch):
    # apply checks the mode sum of a vector's targets before it packs any.
    # a12 contracts no 2-quanta, so these images stay one term each; the
    # guard, not a pack inside an exponential, must refuse them
    fock = TwistedFock()
    assert fock.vertex["a12"].f2 == 0
    assert fock._head("a12", -6, 0)[0] == 2 and fock._head("a12", -8, 0)[0] == 4
    # the narrower room the command-line test sets: targets of mode sum 8
    with monkeypatch.context() as patched:
        patched.setattr(fock_module, "_MODE_SUM_LIMIT", 8)
        with pytest.raises(OverflowError):
            fock.apply("a12", -6, FockVector.unit(((2, 2, 2), 0)))
    # the real room: targets of mode sum 514, whose 2-quanta could repeat 256 times
    deep = FockVector.unit(((2,) * 255, 0))
    with pytest.raises(OverflowError):
        fock.apply("a12", -8, deep)
    with pytest.raises(OverflowError):
        fock.apply_batch("a12", -8, [FockVector.unit(((2,), 0)), deep], {})
    assert fock._mono_cache == {}  # refused before any annihilation


def reference_image(fock, kind, n4, mono):
    """(base, items) in the image kernels' target order, built on quanta tuples
    with the plain sorted merge: contraction patterns over the quantum sizes
    largest first, creation multisets largest part first, and integer weights
    over the lcm of the creation denominators reached."""
    modes, c = mono
    if kind in ("b0", "b2"):
        if n4 < 0:
            return ONE, (((merge(modes, (-n4,)), c), 1),)
        k = modes.count(n4)
        if not k:
            return ONE, ()
        rest = list(modes)
        rest.remove(n4)
        return gr(Fraction(1, 4)), (((tuple(rest), c), GRAM_NORM[n4 % 4] * n4 * k),)
    if kind == "e1":
        phase, c2 = fock.coset.act_on_charge(section(ALPHA1, HAT_LNU), c)
        return phase, (((modes, c2), 1),)
    if kind == "dT":
        if c < 0:
            return ONE, ()
        items = []
        for h4, factor, leftover in contractions(modes, {0: -1, 2: -1}):
            if h4 == 2 * c:
                items.append(((tuple(leftover), c), int(factor)))
        return i_power(c), tuple(items)
    vec, kappa, prefactor, want = lattice_vertex(kind, n4, c)
    phase, c2 = fock.coset.act_on_charge(section(vec, HAT_LNU), c)
    acc, dens = {}, []
    for h4, afac, leftover in contractions(modes, {0: -2 * kappa[0], 2: -6 * kappa[2]}):
        if want + h4 < 0:
            continue
        cfacs = []
        for parts in even_multisets(want + h4):
            cfac = Fraction(1)
            for q, j in Counter(parts).items():
                cfac *= (4 * kappa[q % 4] / q) ** j / factorial(j)
            if cfac:
                cfacs.append((parts, cfac))
        dens.append(lcm(*(cfac.denominator for _, cfac in cfacs)))
        for parts, cfac in cfacs:
            tgt = (merge(tuple(leftover), parts), c2)
            acc[tgt] = acc.get(tgt, 0) + afac * cfac
    den = lcm(*dens)
    items = []
    for tgt, w in acc.items():
        assert (w * den).denominator == 1
        if w:
            items.append((tgt, int(w * den)))
    return (prefactor * phase).scale_frac(Fraction(1, den)), tuple(items)


def test_images_match_reference_merge(fock):
    ops = (
        [(k, n) for k in ("a1", "a2", "a12") for n in range(-11, 10)]
        + [("b0", n) for n in range(-11, 10) if n and n % 4 == 0]
        + [("b2", n) for n in range(-11, 10) if n % 4 == 2]
        + [("e1", 0), ("dT", 0)]
    )
    for bucket in ((0, 0), (0, 8), (1, 9), (-1, 11), (2, 12), (1, 13), (0, 16)):
        for mono in enumerate_bucket(*bucket):
            for kind, n4 in ops:
                base, items = fock._image_raw(kind, n4, mono)
                want_base, want_items = reference_image(fock, kind, n4, mono)
                assert base == want_base, (kind, n4, mono)
                assert items == want_items, (kind, n4, mono)
                assert all(type(n) is int for _, n in items)


# --- operator work reused across a sweep ------------------------------------


def test_relations_suite_keeps_no_images():
    fock = TwistedFock()
    assert check_linear_relations(fock, 8).passed
    assert fock._matrix_cache == {} and fock._mono_cache == {}


def relations_with(monkeypatch, mutate):
    """check_linear_relations(fock, 8) on an engine whose image heads pass
    through mutate(kind, n4, arg, base, c2) -> (arg, base, c2)."""
    fock = TwistedFock()
    head = fock._head
    monkeypatch.setattr(fock, "_head", lambda kind, n4, c: mutate(kind, n4, *head(kind, n4, c)))
    return check_linear_relations(fock, 8)


def test_relations_catch_a_flipped_coincidence_sign(monkeypatch):
    def negate_a2(kind, n4, arg, base, c2):
        return arg, (-base if kind == "a2" and n4 % 4 == 1 else base), c2

    rep = relations_with(monkeypatch, negate_a2)
    assert not rep.passed
    assert {f["relation"] for f in rep.failures} == {"component-coincidence"}
    assert all(f["n4"] % 4 == 1 for f in rep.failures)


def test_relations_catch_a_nonvanishing_half_integer_mode(monkeypatch):
    # a1(-2) with its x-power a quarter off: the creating exponential then
    # adds an even degree, so the image lands in a live bucket
    def leak_a1(kind, n4, arg, base, c2):
        return (arg + 1 if kind == "a1" and n4 == -2 else arg), base, c2

    rep = relations_with(monkeypatch, leak_a1)
    assert not rep.passed
    assert rep.failures and all(
        f == {"relation": "half-integer-vanishing", "bucket": f["bucket"], "n4": -2, "op": "a1"} for f in rep.failures
    )


def test_sweeps_leave_the_engine_cache_empty():
    fock = TwistedFock()
    assert check_brackets(fock, 10, max_mode4=8).passed
    assert aliased_brackets(fock, 10, max_mode4=8).passed
    assert check_quadratic_relations(fock, 4, t4_max=12, max_intermediate=16).passed
    assert fock._mono_cache == {}


def test_unit_images_are_computed_once(fock):
    local = _LocalApplier(fock)
    mono = enumerate_bucket(1, 9)[2]
    img = local.unit_image("a1", -3, mono)
    assert img == fock.apply("a1", -3, FockVector.unit(mono))
    assert local.unit_image("a1", -3, mono) is img
    assert local.unit_image("a1", -1, mono) == fock.apply("a1", -1, FockVector.unit(mono))


VERTEX_CHARGES = range(-3, 4)


def vertex_images(fock, charge):
    bucket = (charge, charge * charge + 6)
    return {
        (key, n4, mono): fock._vertex_raw(key, n4, mono)
        for key in ("a1", "a2", "a12")
        for n4 in (-5, -4, -1, 0, 3)
        for mono in enumerate_bucket(*bucket)
    }


def test_phase_dict_holds_one_entry_per_operator_and_charge(monkeypatch):
    fock = TwistedFock()
    assert fock._phases == {}
    calls = []
    act = fock.coset.act_on_charge

    def counted(a, c):
        calls.append(c)
        return act(a, c)

    monkeypatch.setattr(fock.coset, "act_on_charge", counted)
    for _ in range(2):
        for charge in VERTEX_CHARGES:
            vertex_images(fock, charge)
    met = {(key, c) for key in ("a1", "a2", "a12") for c in VERTEX_CHARGES}
    assert set(fock._phases) == met
    assert len(calls) == len(met)


def test_images_do_not_depend_on_charges_met_before():
    warm = TwistedFock()
    for charge in VERTEX_CHARGES:
        for other in VERTEX_CHARGES:
            if other != charge:
                vertex_images(warm, other)
        assert vertex_images(warm, charge) == vertex_images(TwistedFock(), charge), charge


def random_vector(rng, monos):
    """A vector on monos with mixed denominators and both parts nonzero."""
    dens = (1, 2, 3, 4, 5, 7, 12)
    return FockVector(
        {
            m: gr(Fraction(rng.randint(1, 9), rng.choice(dens)), Fraction(rng.randint(-9, -1), rng.choice(dens)))
            for m in monos
        }
    )


def reference_sum(fock, terms):
    """sum w * kind(n4) vec, built from _image_raw one Q(i) product at a time."""
    acc = {}
    for w, kind, n4, vec in terms:
        for tgt, c in reference_apply(fock, kind, n4, vec).items():
            acc[tgt] = acc.get(tgt, GaussianRational()) + w * c
    return {tgt: c for tgt, c in acc.items() if not c.is_zero()}


def factorized(local, terms):
    """local.sum_vanishes on terms (w, kind, n4, vec) of one vertex kind."""
    (kind,) = {kind for _, kind, _, _ in terms}
    return local.sum_vanishes(kind, [(w, n4, vec) for w, _, n4, vec in terms])


def test_charge_free_table_matches_reference_across_charges():
    fock = TwistedFock()
    rng = random.Random(12)
    table = {}
    calls = 0
    for bucket in all_buckets(12):
        monos = enumerate_bucket(*bucket)
        # an imaginary vector too: a12 carries a pure phase, so its images
        # have purely real or purely imaginary coefficients
        for vec in (random_vector(rng, monos), FockVector({m: gr(0, rng.randint(1, 9)) for m in monos})):
            for kind in ("a1", "a2", "a12"):
                for n4 in range(-12, 13):
                    got = fock._apply_whole(kind, n4, vec, table)
                    assert got.terms == reference_apply(fock, kind, n4, vec), (bucket, kind, n4)
                    calls += len(vec.terms)
    assert len(table) < calls // 4  # expansions were shared across charges and vectors

    # both integer zero tests against build-subtract-compare, on zero and
    # non-zero combinations; the factorized one on the single-kind sums,
    # among them words at n4 and n4 + 2 on different vectors (a head shared
    # across terms would give those the wrong mode)
    local = _LocalApplier(fock)
    outcomes, factorized_outcomes = set(), set()
    for bucket in ((0, 8), (1, 9), (-1, 11), (2, 12)):
        monos = enumerate_bucket(*bucket)
        v, v2 = random_vector(rng, monos), random_vector(rng, monos)
        real = FockVector({m: gr(rng.randint(1, 9)) for m in monos})
        for n4 in range(-7, 8, 2):
            sign = component_sign(n4)
            m4 = n4 - n4 % 4
            for terms in (
                [(ONE, "a2", n4, v), (gr(-sign), "a1", n4, v)],  # the coincidence relation: zero
                [(ONE, "a2", n4, v), (gr(sign), "a1", n4, v)],
                [(gr(2, 1), "a1", n4, v), (gr(-2, -1), "a1", n4, v)],
                [(gr(1, 1), "a1", n4, v), (gr(Fraction(1, 3)), "a1", n4 + 2, v2)],
                [(gr(0, 1), "a1", n4, v + v2), (gr(0, -1), "a1", n4, v), (gr(0, -1), "a1", n4, v2)],
                [(ONE, "a12", m4, real)],
                [(gr(0, 1), "a12", m4, real)],
            ):
                want = reference_sum(fock, terms)
                built = FockVector()
                for w, kind, k4, vec in terms:
                    built = built + fock.apply(kind, k4, vec).scale(w)
                assert built.terms == want
                assert vanishes(local, terms) == (not want), (bucket, terms)
                outcome = "zero" if not want else "imaginary" if all(c.a == 0 for c in want.values()) else "other"
                outcomes.add(outcome)
                if len({kind for _, kind, _, _ in terms}) == 1:
                    assert factorized(local, terms) == (not want), (bucket, terms)
                    factorized_outcomes.add(outcome)
    assert outcomes == factorized_outcomes == {"zero", "imaginary", "other"}

    # a vector over two charges: its targets lie in charges 1 and 2
    low, high = random_vector(rng, enumerate_bucket(0, 8)), random_vector(rng, enumerate_bucket(1, 9))
    both = low + high
    for n4 in (-5, -3, -1):
        img = fock._apply_whole("a1", n4, both, {})
        assert img.terms == reference_apply(fock, "a1", n4, both)
        assert {c for _, c in img.terms} == {1, 2}
        terms = [(ONE, "a1", n4, both), (gr(-1), "a1", n4, low), (gr(-1), "a1", n4, high)]
        assert vanishes(local, terms) and factorized(local, terms)
        # what is left lies in one of the two charges only
        for part in (low, high):
            terms = [(ONE, "a1", n4, both), (gr(-1), "a1", n4, part)]
            assert not vanishes(local, terms) and not factorized(local, terms)


def test_both_zero_tests_agree_on_every_quadratic_sum(fock):
    # every combination the quadratic suite builds at cutoff 2, asked of the
    # records (vanishes) and the factorized test (sum_vanishes); then, where
    # some word's image is nonzero, with the last such word dropped and with
    # its weight doubled, which leave its image over and so must read nonzero
    local = _LocalApplier(fock)

    def both(kind, terms):
        records = vanishes(local, [(w, kind, n4, vec) for w, n4, vec in terms])
        assert local.sum_vanishes(kind, terms) == records
        return records

    perturbed = 0
    for bucket in all_buckets(2):
        c, l = bucket
        for t4 in range(-8, 25):
            for fam, kind, words in suites_module._quadratic_sums(t4, l - (c + 1) ** 2, l - (c + 2) ** 2):
                if words and l - min(b4 for (_, _, b4), _ in words) > 26:
                    continue  # skipped by the suite
                for mono in enumerate_bucket(*bucket):
                    terms = [(w, a4, local.unit_image(rk, b4, mono)) for (a4, rk, b4), w in words]
                    assert both(kind, terms), (fam, t4, mono)
                    live = [k for k, term in enumerate(terms) if not both(kind, [term])]
                    if live:
                        k = live[-1]
                        w, a4, vec = terms[k]
                        rest = terms[:k] + terms[k + 1 :]
                        assert not both(kind, rest), (fam, t4, mono)
                        assert not both(kind, rest + [(w.scale_frac(2), a4, vec)]), (fam, t4, mono)
                        perturbed += 1
    # of the 424 checks, 118 sum over an empty window and 60 over words
    # whose images are each zero
    assert perturbed == 424 - 118 - 60


# --- the packed zero test against the records ---------------------------------


def records_bucket_vanishes(local, bucket, words):
    """_LocalApplier.bucket_vanishes through the records reference: each
    word's inner image a unit image, the sum on each basis monomial decided
    by vanishes."""
    for mono in enumerate_bucket(*bucket):
        terms = [
            (w, kind, n4, FockVector.unit(mono) if inner is None else local.unit_image(*inner, mono))
            for w, kind, n4, inner in words
        ]
        if not vanishes(local, terms):
            return False
    return True


def sweeps(cutoff):
    fock = TwistedFock()
    return [check_linear_relations(fock, cutoff).as_dict(), check_brackets(fock, cutoff, max_mode4=8).as_dict()]


def recorded_words(monkeypatch, sweep):
    """The report of sweep() and the (bucket, words) of every zero test it
    asked of bucket_vanishes."""
    calls = []
    real = _LocalApplier.bucket_vanishes

    def recording(self, bucket, words):
        calls.append((bucket, words))
        return real(self, bucket, words)

    with monkeypatch.context() as patched:
        patched.setattr(_LocalApplier, "bucket_vanishes", recording)
        rep = sweep()
    return rep, calls


def test_packed_sweeps_match_the_records_sweeps(monkeypatch):
    packed = sweeps(10)
    assert all(rep["pass"] and rep["details"]["vacuous"] for rep in packed)
    monkeypatch.setattr(_LocalApplier, "bucket_vanishes", records_bucket_vanishes)
    assert sweeps(10) == packed


def test_perturbed_words_flip_both_zero_tests_alike(monkeypatch):
    # every zero test of the bracket sweep at cutoff 8 with the central word's
    # weight doubled, or the first outer word's: the sum then gains one more
    # copy of that word, so it must read zero exactly when that word alone
    # does, for the packed test and the records alike
    fock = TwistedFock()
    _, calls = recorded_words(monkeypatch, lambda: check_brackets(fock, 8, max_mode4=8))
    local = _LocalApplier(fock)
    flips = Counter()
    for bucket, words in calls:
        doubled = {"outer": 0}
        if words[-1][1] == "a12" and words[-1][3] is None:
            doubled["central"] = len(words) - 1
        for name, k in doubled.items():
            w, kind, n4, inner = words[k]
            changed = words[:k] + [(w.scale_frac(2), kind, n4, inner)] + words[k + 1 :]
            got = local.bucket_vanishes(bucket, changed)
            assert got == records_bucket_vanishes(local, bucket, changed), (name, bucket, words)
            assert got == local.bucket_vanishes(bucket, [words[k]]), (name, bucket, words)
            flips[name] += not got
    assert len(calls) > 1000 and flips["central"] > 40 and flips["outer"] > 150


def test_an_eight_bit_start_grows_and_changes_no_report(monkeypatch):
    want = sweeps(10)
    made = []
    init = _LocalApplier.__init__

    def recording(self, fock):
        init(self, fock)
        made.append(self)

    monkeypatch.setattr(fock_module, "_SLOT_BITS", 8)
    monkeypatch.setattr(_LocalApplier, "__init__", recording)
    assert sweeps(10) == want
    assert len(made) == 2 and all(local.width > 8 for local in made)


@pytest.mark.parametrize("start", [64, 8])
def test_packed_kernels_match_the_reference_kernels(monkeypatch, start):
    # every packed kernel the relation and bracket sweeps build at cutoff 12,
    # summed from created leftovers, against the reference kernel (_kernel)
    # packed target by target: its numerators times D / den at the slots of
    # their weight.  From an 8-bit start the sweeps double their width and
    # rebuild their created leftovers, which the kernels built after that
    # read.  bits[0] bounds the widest numerator of every kernel
    built = []
    packed_kernel = fock_module._packed_kernel

    def recording(fock, created, kind, arg, width, bits, multiset, annihilations):
        packed = packed_kernel(fock, created, kind, arg, width, bits, multiset, annihilations)
        built.append((fock, kind, arg, width, multiset, packed, bits[0]))
        return packed

    monkeypatch.setattr(fock_module, "_SLOT_BITS", start)
    monkeypatch.setattr(fock_module, "_packed_kernel", recording)
    fock = TwistedFock()
    assert check_linear_relations(fock, 12).passed and check_brackets(fock, 12).passed
    nonzero = 0
    for fock, kind, arg, width, multiset, packed, bound in built:
        den, targets, nums = fock._kernel(kind, arg, _MODES[multiset])
        w = fock_module._WEIGHTS[multiset] + arg
        scale = fock_module._uniform_den(fock.vertex[kind], w) // den
        slots = fock_module._SLOTS[w][1]
        assert packed == sum(n << width * slots[t] for t, n in zip(targets, nums)) * scale, (kind, arg, multiset)
        assert bound >= max((abs(n) * scale for n in nums), default=0).bit_length()
        nonzero += bool(nums)
    widths = Counter(width for _, _, _, width, _, _, _ in built)
    assert len(built) > 2500 and nonzero > 800
    assert set(widths) == ({64} if start == 64 else {8, 16, 32, 64}), widths


def test_vacuous_checks_are_the_ones_without_a_target_bucket(monkeypatch):
    # a check whose target bucket does not exist: every word of it is zero
    # on its own, whatever the coefficients
    fock = TwistedFock()
    for sweep in (lambda: check_linear_relations(fock, 8), lambda: check_brackets(fock, 8, max_mode4=8)):
        rep, calls = recorded_words(monkeypatch, sweep)
        local = _LocalApplier(fock)
        vacuous = 0
        for bucket, words in calls:
            _, kind, n4, inner = words[0]
            target = fock.target_bucket(kind, n4, bucket if inner is None else fock.target_bucket(*inner, bucket))
            if not bucket_exists(*target):
                vacuous += 1
                assert all(local.bucket_vanishes(bucket, [word]) for word in words), (bucket, words)
        assert rep.details["vacuous"] == vacuous > 0
        assert rep.passed and rep.checked > len(calls) // 2


# --- the zero table -------------------------------------------------------------


def families(local, bucket, words):
    """The (kind, argument, weight) of the outer kernels each word reads on
    bucket: the keys of local.zero that _vanishes_on looks up."""
    c, l = bucket
    out = []
    for _, kind, n4, inner in words:
        cin, win = c, l - c * c
        if inner is not None:
            iarg, _, cin = local.heads[inner[0], inner[1], c]
            win += iarg
        out.append((kind, local.heads[kind, n4, cin][0], win))
    return out


def target_exists(fock, bucket, words):
    _, kind, n4, inner = words[0]
    return bucket_exists(*fock.target_bucket(kind, n4, bucket if inner is None else fock.target_bucket(*inner, bucket)))


def test_vacuous_checks_are_answered_by_the_zero_table(monkeypatch):
    # each check without a target bucket passes on a fresh applier, which
    # then holds every word's outer family as zero where that word reads it
    fock = TwistedFock()
    for sweep in (lambda: check_linear_relations(fock, 10), lambda: check_brackets(fock, 10, max_mode4=8)):
        rep, calls = recorded_words(monkeypatch, sweep)
        vacuous = 0
        for bucket, words in calls:
            if target_exists(fock, bucket, words):
                continue
            vacuous += 1
            local = _LocalApplier(fock)
            assert local.bucket_vanishes(bucket, words), (bucket, words)
            assert all(local.zero.get(key) is True for key in families(local, bucket, words)), (bucket, words)
        assert rep.details["vacuous"] == vacuous > 0


@pytest.mark.parametrize("sweep", ["relations", "brackets"])
def test_perturbed_answered_words_flip_both_zero_tests_alike(monkeypatch, sweep):
    # the word lists the zero table answers alone, vacuous or with a target
    # bucket, with their first word's weight doubled, and then with the
    # words of a check on the same bucket that the table does not answer
    # added, whole or without their last word: the sum must read zero
    # exactly when the added words alone do, for the packed test and the
    # records alike, whatever the answered words leave out
    fock = TwistedFock()
    if sweep == "relations":
        _, calls = recorded_words(monkeypatch, lambda: check_linear_relations(fock, 10))
    else:
        _, calls = recorded_words(monkeypatch, lambda: check_brackets(fock, 8, max_mode4=8))
    local = _LocalApplier(fock)
    answered, unanswered = [], {}
    for bucket, words in calls:
        local.digits.clear()
        local.bucket_vanishes(bucket, words)
        if all(local.zero[key] for key in families(local, bucket, words)):
            answered.append((bucket, words))
        else:
            unanswered.setdefault(bucket, []).append(words)
    seen = Counter()
    for bucket, words in answered:
        local.digits.clear()
        w, kind, n4, inner = words[0]
        doubled = [(w.scale_frac(2), kind, n4, inner)] + words[1:]
        assert local.bucket_vanishes(bucket, doubled) and records_bucket_vanishes(local, bucket, doubled)
        for other in unanswered.get(bucket, [])[:2]:
            for extra in (other, other[:-1]):
                got = local.bucket_vanishes(bucket, doubled + extra)
                assert got == records_bucket_vanishes(local, bucket, doubled + extra), (bucket, words, extra)
                assert got == local.bucket_vanishes(bucket, extra), (bucket, words, extra)
                seen[target_exists(fock, bucket, words), got] += 1
    assert seen[False, True] and seen[False, False]
    if sweep == "relations":
        assert seen[True, True] and seen[True, False]


# --- fault injection: the reuse hides no mismatch -----------------------------


def test_doubled_central_weights_fail_brackets_and_quadratic(monkeypatch):
    # a12's annihilation expansion doubled on sources of mode sum >= 12: the
    # formula the packed kernels (brackets) and the factorized sums (quadratic) read
    annihilation = fock_module._annihilation_terms

    def mutant(modes, f0, f2):
        terms = annihilation(modes, f0, f2)
        if (f0, f2) == (-2, 0) and sum(modes) >= 12:
            terms = [(h4, 2 * fac, left) for h4, fac, left in terms]
        return terms

    central = TwistedFock().vertex["a12"]
    assert (central.f0, central.f2) == (2, 0)
    monkeypatch.setattr(fock_module, "_annihilation_terms", mutant)
    assert not check_brackets(TwistedFock(), 12, max_mode4=8).passed
    assert not check_quadratic_relations(TwistedFock(), 4, t4_max=12, max_intermediate=16).passed


def test_records_keyed_without_the_charge_fail_brackets(monkeypatch):
    # kernels keyed on (kind, n4, modes): the head hands the mode itself on
    # as the kernel argument, so one packed kernel per mode and modes is
    # read at every charge
    head = TwistedFock._head

    def keyed_on_n4(self, kind, n4, c):
        _, base, c2 = head(self, kind, n4, c)
        return n4, base, c2

    monkeypatch.setattr(TwistedFock, "_head", keyed_on_n4)
    assert not check_brackets(TwistedFock(), 12, max_mode4=8).passed


def shift_kernels(monkeypatch, kind):
    """Patch the two steps the packed kernels read so that kind's images
    land one weight step (two quarters) above what its argument says: the
    annihilation expansion reports each degree two quarters higher, so a
    kernel keeps the terms its argument plus 2 leaves room for, and the
    creation step the created leftovers read adds two quarters more than
    their target weight asks.  Together kind's kernel at arg is its kernel
    at arg + 2, read at the slots of arg's weight."""
    annihilation, creation = fock_module._annihilation_terms, fock_module._creation_terms
    data = TwistedFock().vertex[kind]

    def shifted_annihilation(modes, f0, f2):
        terms = annihilation(modes, f0, f2)
        if (f0, f2) == (-data.f0, -data.f2):
            terms = [(h4 + 2, fac, left) for h4, fac, left in terms]
        return terms

    def shifted_creation(f0, f2, g4):
        return creation(f0, f2, g4 + 2 if (f0, f2) == (data.f0, data.f2) else g4)

    monkeypatch.setattr(fock_module, "_annihilation_terms", shifted_annihilation)
    monkeypatch.setattr(fock_module, "_creation_terms", shifted_creation)


def test_an_off_weight_kernel_fails_its_zero_test(monkeypatch):
    # [a12(0), a1(-1)] on the vacuum is zero.  With a1's kernels a weight
    # step off, the two words still cancel where each image lands, so only
    # reading such a kernel as a fault makes the test fail
    words = [(ONE, "a12", 0, ("a1", -1)), (GaussianRational(-1), "a1", -1, ("a12", 0))]
    local = _LocalApplier(TwistedFock())
    assert local.bucket_vanishes((0, 0), words) and local.off_weight is None
    shift_kernels(monkeypatch, "a1")
    local = _LocalApplier(TwistedFock())
    assert not local.bucket_vanishes((0, 0), words)
    assert local.off_weight[0] == "a1"


def test_an_off_weight_kernel_fails_a_vacuous_check(monkeypatch):
    # the zero table learns that a family is empty by building its kernels,
    # not from the target bucket, so a check without a target bucket still
    # meets a kernel off its weight and fails
    fock = TwistedFock()
    _, calls = recorded_words(monkeypatch, lambda: check_linear_relations(fock, 8))
    vacuous = [(bucket, words) for bucket, words in calls if not target_exists(fock, bucket, words)]
    shift_kernels(monkeypatch, "a1")
    failed = 0
    for bucket, words in vacuous:
        local = _LocalApplier(TwistedFock())
        if not local.bucket_vanishes(bucket, words):
            assert local.off_weight[0] == "a1", (bucket, words)
            failed += 1
    assert len(vacuous) > 300 and failed > 10


def test_a_zero_family_is_zero_only_after_every_kernel_is_built(monkeypatch):
    # a12 creates and annihilates only quanta of quarter mode 0 mod 4, so
    # its kernels of argument 2 are empty on every multiset, and every check
    # that reads them is answered by the zero table.  Give the last multiset
    # of weight 4 in slot order one on-weight target: the two relation
    # checks that read the family at weight 4 must fail, as wrong images and
    # not as kernels off their weight
    assert _MODES[fock_module._SLOTS[4][0][-1]] == (2, 2)
    packed_kernel = fock_module._packed_kernel

    def one_target(fock, created, kind, arg, width, bits, multiset, annihilations):
        packed = packed_kernel(fock, created, kind, arg, width, bits, multiset, annihilations)
        if (kind, arg, _MODES[multiset]) == ("a12", 2, (2, 2)):
            # numerator 1 over denominator 1 at the slot of (2, 2, 2), over D
            d = fock_module._uniform_den(fock.vertex[kind], 6)
            packed += d << width * fock_module._SLOTS[6][1][_pack((2, 2, 2))]
            bits[0] = max(bits[0], d.bit_length())
        return packed

    assert check_linear_relations(TwistedFock(), 8).passed
    monkeypatch.setattr(fock_module, "_packed_kernel", one_target)
    rep = check_linear_relations(TwistedFock(), 8)
    assert not rep.passed and "off_weight_kernel" not in rep.details
    failed = [(f["relation"], f["bucket"], f["n4"]) for f in rep.failures]
    assert failed == [("sum-vector-integer-only", (-1, 5), -2), ("sum-vector-integer-only", (-2, 8), 2)]


def test_a_wrong_created_numerator_fails_relations_and_brackets(monkeypatch):
    # one created leftover with its numerator one too large: a1's creation
    # of one quantum of quarter mode 2 on the empty leftover, which every a1
    # kernel of target weight 2 reads after annihilating its whole source.
    # It stays on its weight, so the checks that read it fail as wrong
    # images and name no kernel off its weight
    created = fock_module._created

    def wrong(fock, dens, width, key):
        packed, top = created(fock, dens, width, key)
        if key == ("a1", 2, 0):
            return packed + 1, top + 1
        return packed, top

    assert _MODES[fock_module._SLOTS[2][0][0]] == (2,)
    monkeypatch.setattr(fock_module, "_created", wrong)
    fock = TwistedFock()
    for rep in (check_linear_relations(fock, 12), check_brackets(fock, 12, max_mode4=8)):
        assert not rep.passed and rep.failures and "off_weight_kernel" not in rep.details


@pytest.mark.parametrize(
    "where,kind", [("head", "a12"), ("kernel", "a12"), ("kernel", "a1")], ids=["head", "kernel", "a1-kernel"]
)
def test_central_kernels_a_weight_step_off_fail_brackets(monkeypatch, where, kind):
    # images of kind one weight step (two quarters) off: through the head on
    # source charge 1, so they land in a bucket the other words do not
    # reach, or through the kernel on every charge, so its targets do not
    # weigh what its argument says.  Each must come back as failed checks,
    # not as an exception or a digit read at another weight's slot, and
    # only a shifted kernel is named as off its weight
    head = TwistedFock._head

    def shifted_head(self, k, n4, c):
        arg, base, c2 = head(self, k, n4, c)
        return (arg + 2 if k == kind and c == 1 else arg), base, c2

    if where == "head":
        monkeypatch.setattr(TwistedFock, "_head", shifted_head)
    else:
        shift_kernels(monkeypatch, kind)
    fock = TwistedFock()
    for rep in (check_linear_relations(fock, 12), check_brackets(fock, 12, max_mode4=8)):
        assert not rep.passed and rep.failures
        if where == "head":
            assert "off_weight_kernel" not in rep.details
            assert {f["bucket"][0] for f in rep.failures} <= {0, 1}
        else:
            assert rep.details["off_weight_kernel"][0] == kind


def test_exchange_reads_the_engines_contraction_factors():
    # a doubled fixed-boson factor of a1, a negated flipped-boson factor of
    # a2, then a doubled and a negated fixed-boson factor of a12
    for key, field, scale in (("a1", "f0", 2), ("a2", "f2", -1), ("a12", "f0", 2), ("a12", "f0", -1)):
        fock = TwistedFock()
        data = fock.vertex[key]
        fock.vertex[key] = data._replace(**{field: scale * getattr(data, field)})
        assert not check_exchange_identity(fock).passed, (key, field)


def test_odd_charge_phase_sign_fails_brackets(monkeypatch):
    act = CosetModel.act_on_charge

    def mutant(self, a, c):
        phase, c2 = act(self, a, c)
        return (-phase if c % 2 else phase), c2

    monkeypatch.setattr(CosetModel, "act_on_charge", mutant)
    fock = TwistedFock()  # built after the patch, so its phase dict holds the mutant
    assert not check_brackets(fock, 12, max_mode4=8).passed
