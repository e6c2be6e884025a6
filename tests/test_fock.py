import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, isqrt, lcm

import pytest

import a2twist.fock as fock_module
from a2twist.fock import (
    GRAM_NORM,
    FockVector,
    TwistedFock,
    _LocalApplier,
    _pack,
    _unpack,
    all_buckets,
    bucket_exists,
    check_brackets,
    check_exchange_identity,
    check_linear_relations,
    check_quadratic_relations,
    component_sign,
    enumerate_bucket,
    monomial_qweight,
    self_bracket_coeff,
    sigma_factor,
)
from a2twist.groups import HAT_LNU, CosetModel, section
from a2twist.lattice import ALPHA1, THETA, gram
from a2twist.scalar import GaussianRational, ONE, i_power


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
    assert fock.matrix("a2", -1, b) == fock.matrix("a1", -1, b).scale(gr(-1))
    assert fock.matrix("a2", -3, b) == fock.matrix("a1", -3, b)
    assert fock.matrix("a1", -2, b).is_zero()
    assert fock.matrix("a12", -2, b).is_zero()


def test_self_bracket_coefficient_classes():
    assert self_bracket_coeff(-3) == gr(Fraction(-1, 2))  # index in the 1/4 class
    assert self_bracket_coeff(-1) == gr(Fraction(1, 2))  # index in the 3/4 class
    assert self_bracket_coeff(1) == gr(Fraction(-1, 2))


def test_bracket_table_small(fock):
    rep = check_brackets(fock, 10, max_mode4=8, direct=True)
    assert rep.passed
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
    rep = check_exchange_identity(fock, order=12)
    assert rep.passed
    assert rep.checked > 50


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
    # e x_a(m) = C(a, -a1) x_a(m - <P0 a, a1>) e, as matrices
    for bucket in ((0, 0), (1, 3), (0, 4)):
        for key, c_factor, shift in (("a1", ONE, 2), ("a2", gr(-1), 2), ("a12", gr(-1), 4)):
            for m4 in (-5, -4, -1, 1):
                if key == "a12" and m4 % 4:
                    continue
                b1 = fock.target_bucket(key, m4, bucket)
                lhs = fock.matrix("e1", 0, b1) * fock.matrix(key, m4, bucket)
                b2 = fock.target_bucket("e1", 0, bucket)
                rhs = (fock.matrix(key, m4 - shift, b2) * fock.matrix("e1", 0, bucket)).scale(c_factor)
                assert lhs == rhs


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
    data = fock.vertex[kind]
    phase, c2 = fock.coset.act_on_charge(section(data.vec, HAT_LNU), c)
    kappa = {0: data.kappa0, 2: data.kappa2}
    want = -n4 - 2 * gram(data.vec, data.vec) - data.diag4_offset - data.diag4_slope * c
    for h4, afac, leftover in contractions(modes, {0: -2 * data.kappa0, 2: -6 * data.kappa2}):
        for parts in even_multisets(want + h4) if want + h4 >= 0 else ():
            cfac = Fraction(1)
            for q, j in Counter(parts).items():
                cfac *= (4 * kappa[q % 4] / q) ** j / factorial(j)
            if cfac:
                tgt = (tuple(sorted(leftover + list(parts), reverse=True)), c2)
                acc[tgt] = acc.get(tgt, 0) + afac * cfac
    return data.prefactor * phase, {t: w for t, w in acc.items() if w}


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
        "apply_batch": fock.apply_batch(kind, n4, vectors),
        "local": [local.apply(kind, n4, v) for v in vectors],
        "matrix": [matrix_apply(fock, kind, n4, v) for v in vectors],
    }


def check_kernel_against_term_sum(fock):
    """Every application path against reference_apply on seeded random
    vectors with mixed denominators, over KERNEL_OPS; returns the
    _LocalApplier whose records served the local path."""
    local = _LocalApplier(fock)
    rng = random.Random(5)
    dens = (1, 2, 3, 4, 5, 7, 12)
    for bucket in ((0, 8), (1, 9), (-1, 11), (2, 12)):
        monos = enumerate_bucket(*bucket)
        vectors = []
        for _ in range(3):
            terms = {}
            for mono in rng.sample(monos, min(len(monos), 4)):
                re = Fraction(rng.randint(-9, 9), rng.choice(dens))
                terms[mono] = gr(re, Fraction(rng.randint(1, 9), rng.choice(dens)))
            vectors.append(FockVector(terms))
        assert len({c.d for v in vectors for c in v.terms.values()}) > 1  # mixed denominators
        for kind, n4 in KERNEL_OPS:
            want = [reference_apply(fock, kind, n4, v) for v in vectors]
            for path, got in all_paths(fock, kind, n4, vectors, local).items():
                assert [g.terms for g in got] == want, (path, bucket, kind, n4)
    return local


def test_shared_denominator_kernel_matches_term_sum():
    fock = TwistedFock()
    local = check_kernel_against_term_sum(fock)
    # a sweep's stored records hold their weights as one 64-bit array each
    records = [rec for rec in local.images.values() if rec[1]]
    assert len(records) > 100
    assert all(type(nums) is array and nums.typecode == "q" for _, _, nums in records)


def test_weights_beyond_64_bits_stay_exact(monkeypatch):
    created = fock_module._creation_terms
    wide = (-(2**63), 2**63, 2**63 + 1, -(2**64) - 3, 3 * 2**70)  # the first fits in 64 bits

    def widened(f0, f2, g4):
        den, terms = created(f0, f2, g4)
        return den, tuple((parts, n * wide[k % len(wide)]) for k, (parts, n) in enumerate(terms))

    # the records, the factorized path and the reference (_image_raw) all
    # read the same widened creation numerators
    monkeypatch.setattr(fock_module, "_creation_terms", widened)
    fock = TwistedFock()
    local = check_kernel_against_term_sum(fock)
    kinds = {type(nums) for _, targets, nums in local.images.values() if targets}
    assert kinds == {array, tuple}  # a single -2**63 weight still fits the array
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
        negs, lefts, _ = fock_module._expansion(modes, -data.f0, -data.f2)
        return {left for neg, left in zip(negs, lefts) if neg == -h4}

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
                got = _unpack(_pack(modes))
                assert got == modes
                assert _unpack(_pack(modes)) is got


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
        assert _unpack(_pack(a) + _pack(b)) == merge(a, b)
    # the largest multiplicity a digit holds
    assert _unpack(_pack((2,) * 120) + _pack((2,) * 135)) == (2,) * 255


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
        fock.apply_batch("a12", -8, [FockVector.unit(((2,), 0)), deep])
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
    data = fock.vertex[kind]
    phase, c2 = fock.coset.act_on_charge(section(data.vec, HAT_LNU), c)
    kappa = {0: data.kappa0, 2: data.kappa2}
    want = -n4 - 2 * gram(data.vec, data.vec) - data.diag4_offset - data.diag4_slope * c
    acc, dens = {}, []
    for h4, afac, leftover in contractions(modes, {0: -2 * data.kappa0, 2: -6 * data.kappa2}):
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
    return (data.prefactor * phase).scale_frac(Fraction(1, den)), tuple(items)


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
    assert check_brackets(fock, 10, max_mode4=8, direct=True).passed
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
                    got = fock._apply(kind, n4, vec, table)
                    assert got.terms == reference_apply(fock, kind, n4, vec), (bucket, kind, n4)
                    calls += len(vec.terms)
    assert len(table) < calls // 4  # records were shared across charges and vectors

    # the integer zero test against build-subtract-compare, on zero and
    # non-zero combinations
    local = _LocalApplier(fock)
    outcomes = set()
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
                assert local.vanishes(terms) == (not want), (bucket, terms)
                outcomes.add("zero" if not want else "imaginary" if all(c.a == 0 for c in want.values()) else "other")
    assert outcomes == {"zero", "imaginary", "other"}

    # a vector over two charges: its targets lie in charges 1 and 2
    low, high = random_vector(rng, enumerate_bucket(0, 8)), random_vector(rng, enumerate_bucket(1, 9))
    both = low + high
    for n4 in (-5, -3, -1):
        img = fock._apply("a1", n4, both, {})
        assert img.terms == reference_apply(fock, "a1", n4, both)
        assert {c for _, c in img.terms} == {1, 2}
        assert local.vanishes([(ONE, "a1", n4, both), (gr(-1), "a1", n4, low), (gr(-1), "a1", n4, high)])
        # what is left lies in one of the two charges only
        assert not local.vanishes([(ONE, "a1", n4, both), (gr(-1), "a1", n4, low)])
        assert not local.vanishes([(ONE, "a1", n4, both), (gr(-1), "a1", n4, high)])


# --- fault injection: the reuse hides no mismatch -----------------------------


def test_doubled_central_weights_fail_brackets_and_quadratic(monkeypatch):
    kernel = TwistedFock._kernel

    def mutant(self, kind, arg, modes):
        den, targets, nums = kernel(self, kind, arg, modes)
        if kind == "a12" and sum(modes) >= 12:
            nums = [2 * n for n in nums]
        return den, targets, nums

    monkeypatch.setattr(TwistedFock, "_kernel", mutant)
    assert not check_brackets(TwistedFock(), 12, max_mode4=8).passed
    assert not check_quadratic_relations(TwistedFock(), 4, t4_max=12, max_intermediate=16).passed


def test_records_keyed_without_the_charge_fail_brackets(monkeypatch):
    # records keyed on (kind, n4, modes): the kernel of the charge met first
    # is reused at every other charge with the same mode and modes
    head, kernel = TwistedFock._head, TwistedFock._kernel
    wants = {}

    def keyed_on_n4(self, kind, n4, c):
        want, base, c2 = head(self, kind, n4, c)
        wants[kind, n4] = want
        return n4, base, c2

    def kernel_of_the_last_charge(self, kind, n4, modes):
        return kernel(self, kind, wants[kind, n4], modes)

    monkeypatch.setattr(TwistedFock, "_head", keyed_on_n4)
    monkeypatch.setattr(TwistedFock, "_kernel", kernel_of_the_last_charge)
    assert not check_brackets(TwistedFock(), 12, max_mode4=8).passed


def test_odd_charge_phase_sign_fails_brackets(monkeypatch):
    act = CosetModel.act_on_charge

    def mutant(self, a, c):
        phase, c2 = act(self, a, c)
        return (-phase if c % 2 else phase), c2

    monkeypatch.setattr(CosetModel, "act_on_charge", mutant)
    fock = TwistedFock()  # built after the patch, so its phase dict holds the mutant
    assert not check_brackets(fock, 12, max_mode4=8).passed
