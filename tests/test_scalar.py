import math
import random
from fractions import Fraction

import pytest

from a2twist.envelope import EnvElement
from a2twist.fock import FockVector
from a2twist.scalar import (
    EchelonBasis,
    ExactMatrix,
    GaussianRational,
    I,
    ONE,
    SparseVector,
    ZERO,
    i_power,
)


def rand_scalar(rng, span=9):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, 5)),
        Fraction(rng.randint(-span, span), rng.randint(1, 5)),
    )


def test_field_examples():
    one_plus = GaussianRational(1, 1)
    one_minus = GaussianRational(1, -1)
    assert one_plus * one_minus == GaussianRational(2)
    assert one_plus.inverse() == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert I ** 4 == ONE
    assert I * I == GaussianRational(-1)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_field_axioms_random():
    rng = random.Random(20240817)
    for _ in range(250):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert a ** -2 == (a.inverse()) ** 2


def test_i_power_cycle():
    assert [i_power(k) for k in range(4)] == [ONE, I, GaussianRational(-1), GaussianRational(0, -1)]
    assert i_power(-1) == GaussianRational(0, -1)
    assert i_power(7) == i_power(3)


def transposed(m):
    return ExactMatrix(m.cols, m.rows, {(c, r): val for (r, c), val in m.entries.items()})


def product(left, right):
    """The matrix product left * right."""
    by_row = {}
    for (r, c), val in right.entries.items():
        by_row.setdefault(r, []).append((c, val))
    acc = {}
    for (r, k), val in left.entries.items():
        for c, w in by_row.get(k, ()):
            acc[r, c] = acc.get((r, c), ZERO) + val * w
    return ExactMatrix(left.rows, right.cols, acc)


def test_rank_examples():
    identity = ExactMatrix(3, 3, {(j, j): ONE for j in range(3)})
    assert identity.rank() == 3
    assert ExactMatrix(4, 5).rank() == 0
    m = ExactMatrix(2, 2, {(0, 0): ONE, (0, 1): I, (1, 0): I, (1, 1): GaussianRational(-1)})
    assert m.rank() == 1
    wide = ExactMatrix(2, 4, {(0, 1): ONE, (0, 3): I, (1, 3): GaussianRational(2)})
    assert wide.rank() == transposed(wide).rank() == 2


def rand_sparse(rng, rows, cols, density=0.3):
    m = ExactMatrix(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                m[r, c] = GaussianRational(rng.randint(-4, 4), rng.randint(-2, 2))
    return m


def test_rank_transpose_and_nullity():
    rng = random.Random(7)
    sizes = [(5, 7), (10, 10), (20, 14), (50, 50)]
    for rows, cols in sizes:
        m = rand_sparse(rng, rows, cols, density=0.15)
        r = m.rank()
        assert r == transposed(m).rank()
        assert r <= min(rows, cols)
    # a product through k dimensions with an identity block in each factor
    # has rank exactly k
    for rows, k, cols in ((6, 3, 5), (12, 7, 9), (20, 1, 20)):
        left, right = rand_sparse(rng, rows, k), rand_sparse(rng, k, cols)
        for j in range(k):
            left[j, j] = ONE
            right[j, j] = ONE
            for c in range(k):
                if c != j:
                    left[j, c] = ZERO
                    right[c, j] = ZERO
        prod = product(left, right)
        assert prod.rank() == transposed(prod).rank() == k


def test_span_membership():
    b1 = {0: ONE, 1: GaussianRational(2)}
    b2 = {1: ONE, 2: GaussianRational(-1)}
    span = EchelonBasis()
    assert span.insert(b1) and span.insert(b2)
    assert span.contains({0: ONE, 1: GaussianRational(3), 2: GaussianRational(-1)})  # b1 + b2
    assert span.contains({0: I, 1: GaussianRational(0, 2)})  # i * b1
    assert span.contains({})
    assert not span.contains({3: ONE})
    assert not span.contains({0: ONE, 1: GaussianRational(3)})


def test_echelon_basis_incremental():
    basis = EchelonBasis()
    assert basis.insert({0: ONE, 1: ONE})
    assert basis.insert({1: ONE})
    assert not basis.insert({0: GaussianRational(2), 1: GaussianRational(5)})
    assert basis.contains({0: I, 1: I})
    assert not basis.contains({2: ONE})


def test_sparse_vector_arithmetic():
    u = SparseVector({0: ONE, 1: I, 2: ZERO})
    v = SparseVector({1: -I, 3: GaussianRational(2)})
    assert u.terms == {0: ONE, 1: I}  # zero coefficients are not stored
    assert (u + v).terms == {0: ONE, 3: GaussianRational(2)}
    assert (u - u).is_zero() and u.scale(ZERO).is_zero()
    assert u - v == u + v.scale(-1)
    # results keep the operands' type, and equality is type-strict
    terms = {((), ()): ONE}
    f, e = FockVector(terms), EnvElement(terms)
    assert type(f + f) is type(f.scale(I)) is FockVector and type(e - e) is EnvElement
    assert f != e and f == FockVector(terms) and e == EnvElement(terms)


# --- the integer-triple representation against a Fraction-pair reference ---


class RefQi:
    """Reference Q(i) element as a pair of Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return RefQi(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return RefQi(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return RefQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return RefQi(self.re / n, -self.im / n)

    def __pow__(self, k):
        out, base = RefQi(1), (self if k >= 0 else self.inverse())
        for _ in range(abs(k)):
            out = out * base
        return out

    def repr(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return "%si" % self.im
        return "%s%s%si" % (self.re, "+" if self.im > 0 else "-", abs(self.im))


def rand_pair(rng):
    span = rng.choice((3, 40, 10 ** 12))

    def frac():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3, 4, 6, 8, 9, 12, 2 ** 40)))

    return frac(), frac()


def assert_matches(x, ref):
    assert isinstance(x, GaussianRational)
    assert (x.re, x.im) == (ref.re, ref.im)
    assert x.d > 0
    assert math.gcd(x.a, x.b, x.d) == 1
    if x.is_zero():
        assert (x.a, x.b, x.d) == (0, 0, 1)
    assert repr(x) == ref.repr()
    assert x.as_strings() == {"re": str(ref.re), "im": str(ref.im)}


def test_triple_matches_fraction_reference():
    rng = random.Random(20261018)
    for _ in range(400):
        (p, q), (r, s) = rand_pair(rng), rand_pair(rng)
        x, y = GaussianRational(p, q), GaussianRational(r, s)
        rx, ry = RefQi(p, q), RefQi(r, s)
        assert_matches(x, rx)
        assert_matches(x + y, rx + ry)
        assert_matches(x - y, rx - ry)
        assert_matches(x * y, rx * ry)
        assert_matches(-x, RefQi(-p, -q))
        assert_matches(x.scale_frac(r), rx * RefQi(r))
        assert_matches(x.scale_frac(3), rx * RefQi(3))
        if not y.is_zero():
            assert_matches(y.inverse(), ry.inverse())
            assert_matches(x / y, rx * ry.inverse())
            assert_matches(y ** -3, ry ** -3)
        assert_matches(x ** 3, rx ** 3)
        assert_matches(x ** 0, RefQi(1))


def test_mixed_int_and_fraction_operands():
    rng = random.Random(5)
    for _ in range(200):
        p, q = rand_pair(rng)
        x, rx = GaussianRational(p, q), RefQi(p, q)
        k, f = rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for other in (k, f):
            ro = RefQi(other)
            assert_matches(x + other, rx + ro)
            assert_matches(other + x, rx + ro)
            assert_matches(x - other, rx - ro)
            assert_matches(other - x, ro - rx)
            assert_matches(x * other, rx * ro)
            assert_matches(other * x, rx * ro)
            if other:
                assert_matches(x / other, rx * ro.inverse())
            if not x.is_zero():
                assert_matches(other / x, ro * rx.inverse())
    assert GaussianRational(3) == 3 and 3 == GaussianRational(3)
    assert GaussianRational(Fraction(3, 2)) == Fraction(3, 2)
    assert Fraction(3, 2) == GaussianRational(Fraction(6, 4))
    assert GaussianRational(Fraction(3, 4)) != Fraction(3, 2)
    assert GaussianRational(3) != Fraction(3, 2)
    assert GaussianRational(3, 1) != 3
    assert GaussianRational(Fraction(1, 2)) != 1
    assert GaussianRational(1) != "1"
    with pytest.raises(TypeError):
        GaussianRational(1) + "1"


def test_one_value_built_several_ways():
    rng = random.Random(11)
    for _ in range(100):
        p, q = rand_pair(rng)
        r, s = rand_pair(rng)
        x, y = GaussianRational(p, q), GaussianRational(r, s)
        ways = [
            GaussianRational(x.re, x.im),
            GaussianRational(Fraction(2 * x.a, 2 * x.d), Fraction(x.b, x.d)),
            x + y - y,
            (x - y) + y,
            x * ONE,
            ONE * x,
            -(-x),
            x.scale_frac(Fraction(7, 3)).scale_frac(Fraction(3, 7)),
        ]
        if not y.is_zero():
            ways += [(x * y) / y, (x / y) * y]
        if not x.is_zero():
            ways.append(x.inverse().inverse())
        for w in ways:
            assert (w.a, w.b, w.d) == (x.a, x.b, x.d)
            assert w == x and hash(w) == hash(x)
        assert len(set(ways + [x])) == 1


def test_repr_and_strings():
    assert repr(GaussianRational(0)) == "0"
    assert repr(GaussianRational(Fraction(-3, 6))) == "-1/2"
    assert repr(GaussianRational(0, 1)) == "1i"
    assert repr(GaussianRational(0, Fraction(-1, 4))) == "-1/4i"
    assert repr(GaussianRational(Fraction(1, 4), Fraction(-1, 4))) == "1/4-1/4i"
    assert repr(GaussianRational(2, Fraction(3, 5))) == "2+3/5i"
    assert GaussianRational(Fraction(-1, 8), Fraction(1, 2)).as_strings() == {"re": "-1/8", "im": "1/2"}
    assert ZERO.as_strings() == {"re": "0", "im": "0"}


def test_inverse_of_zero_all_routes():
    for zero in (ZERO, GaussianRational(0, 0), GaussianRational(Fraction(0, 5)), I - I):
        assert (zero.a, zero.b, zero.d) == (0, 0, 1)
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            ONE / zero
        with pytest.raises(ZeroDivisionError):
            zero ** -1
        with pytest.raises(ZeroDivisionError):
            1 / zero


def test_floats_rejected():
    # 0.1 would otherwise enter as 3602879701896397/36028797018963968
    for bad in (0.1, 1.0, float("inf")):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(1, bad)
        with pytest.raises(TypeError):
            ONE + bad
        with pytest.raises(TypeError):
            ONE * bad
    assert GaussianRational(True) == ONE  # bool is an int


# --- the fraction-free echelon against Q(i) elimination ---


class QiEchelon:
    """Reference elimination over Q(i): rows scaled to lead 1, the pivot at
    the least key, every step GaussianRational arithmetic, with no integer
    clearing, content division or column numbering to get wrong."""

    def __init__(self):
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = self.rows.get(lead)
            if row is None:
                return vec, lead
            coeff = vec[lead]
            for k, val in row.items():
                new = vec.get(k, ZERO) - coeff * val
                if new.is_zero():
                    vec.pop(k, None)
                else:
                    vec[k] = new
        return vec, None

    def insert(self, vec):
        vec, lead = self.reduce(vec)
        if lead is None:
            return False
        inv = vec[lead].inverse()
        self.rows[lead] = {k: v * inv for k, v in vec.items()}
        return True

    def contains(self, vec):
        return self.reduce(vec)[1] is None


def combine(pairs):
    """sum of c * v over (c, v), zero terms dropped."""
    out = {}
    for c, v in pairs:
        for k, x in v.items():
            out[k] = out.get(k, ZERO) + c * x
    return {k: x for k, x in out.items() if not x.is_zero()}


def assert_same_decisions(vectors, probes):
    """insert, len, contains, extend and ExactMatrix.rank agree with the
    Q(i) reference on vectors inserted in turn, then on probes."""
    ref, basis = QiEchelon(), EchelonBasis()
    kept = []
    for v in vectors:
        want = ref.insert(v)
        assert basis.insert(v) == want
        assert len(basis) == len(ref)
        if want:
            kept.append(v)
    for p in probes:
        assert basis.contains(p) == ref.contains(p)
    wrapped = [SparseVector(v) for v in vectors]
    assert [v.terms for v in EchelonBasis().extend(wrapped)] == kept
    keys = sorted({k for v in vectors for k in v})
    row = {k: r for r, k in enumerate(keys)}
    m = ExactMatrix(len(keys), len(vectors), {(row[k], c): x for c, v in enumerate(vectors) for k, x in v.items()})
    assert m.rank() == len(ref)
    return basis


def test_echelon_gaussian_leads_match_reference():
    rng = random.Random(1601)
    for trial in range(30):
        cols = rng.randint(2, 9)

        def coeff():
            # both parts nonzero, so every lead is off the real axis
            return GaussianRational(
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4)),
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4)),
            )

        base = [{c: coeff() for c in rng.sample(range(cols), rng.randint(1, cols))} for _ in range(rng.randint(1, cols))]
        mixed = [combine([(coeff(), v) for v in rng.sample(base, rng.randint(1, len(base)))]) for _ in range(4)]
        vectors = base + mixed
        rng.shuffle(vectors)
        probes = mixed + [{c: coeff()} for c in range(cols + 1)]
        assert_same_decisions(vectors, probes)


def test_echelon_denominators_beyond_64_bits_match_reference():
    rng = random.Random(1602)
    dens = (2 ** 64 + 13, 2 ** 89 - 1, 3 ** 50, 2 ** 127 - 1)

    def coeff():
        return GaussianRational(
            Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.choice(dens)),
            Fraction(rng.randint(-5, 5), rng.choice(dens + (1,))),
        )

    for trial in range(10):
        keys = [(rng.randint(0, 3), rng.randint(0, 30)) for _ in range(6)]
        base = [{k: coeff() for k in rng.sample(keys, 3)} for _ in range(4)]
        mixed = [combine([(coeff(), v) for v in base]) for _ in range(3)]
        vectors = base + mixed
        basis = assert_same_decisions(vectors, mixed + [{k: coeff()} for k in keys])
        assert len(basis) <= 4


def test_echelon_multiples_of_small_primes_match_reference():
    # combinations whose coefficients are multiples of p, and vectors that
    # leave the span only by p times a vector outside it: a rank taken mod p
    # gets either wrong
    rng = random.Random(1603)
    primes = (2, 3, 5, 7, 13, 2 ** 31 - 1, 2 ** 61 - 1)
    for p in primes + (GaussianRational(2, 1),):
        for trial in range(4):
            cols = 6
            base = [{c: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for c in range(cols)} for _ in range(3)]
            base = [{c: x for c, x in v.items() if not x.is_zero()} for v in base]
            outside = {cols - 1: ONE, 0: GaussianRational(rng.randint(1, 3))}
            dependent = combine([(p * rng.randint(1, 4), base[0]), (p * rng.randint(-4, -1), base[1])])
            lifted = combine([(ONE, base[2]), (p, outside)])
            scaled = combine([(p, base[0]), (ONE, base[1]), (p * p, base[2])])
            vectors = base + [dependent, scaled, lifted, combine([(ONE, lifted), (-p, outside)])]
            probes = [dependent, scaled, outside, combine([(ONE, base[0]), (p, outside)])]
            assert_same_decisions(vectors, probes)
    # determinant p: rank 2 over Q(i), 1 mod p
    for p in primes:
        assert_same_decisions([{0: ONE, 1: ONE}, {0: ONE, 1: GaussianRational(1 + p)}], [{1: ONE}])


def test_echelon_content_division_keeps_a_long_chain_small(monkeypatch):
    # 40 dependent combinations of 40 random Gaussian-integer rows: the
    # reductions scale the vector again and again, and only dividing out its
    # content keeps it near the size of the rows (about 160 bits; about
    # 1700 bits without)
    rng = random.Random(1604)
    rows = [
        {c: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for c in rng.sample(range(60), 8)}
        for _ in range(40)
    ]
    rows = [{c: x for c, x in v.items() if not x.is_zero()} for v in rows]
    mixed = [
        combine([(GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)), v) for v in rng.sample(rows, 5)])
        for _ in range(40)
    ]
    widest = [0]
    reduce = EchelonBasis._reduce

    def watched(self, re, im):
        lead = reduce(self, re, im)
        widest[0] = max([widest[0]] + [abs(x).bit_length() for x in (*re.values(), *im.values())])
        return lead

    monkeypatch.setattr(EchelonBasis, "_reduce", watched)
    basis = assert_same_decisions(rows + mixed, mixed)
    stored = max(abs(x).bit_length() for n, re, im in basis._rows.values() for x in (n, *re.values(), *im.values()))
    assert widest[0] <= 2 * stored < 512
    # every row is primitive with a positive rational-integer lead
    for n, re, im in basis._rows.values():
        assert n > 0 and math.gcd(n, *re.values(), *im.values()) == 1
