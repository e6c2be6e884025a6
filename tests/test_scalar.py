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
    QuarterInt,
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


def test_quarter_int_classification_exhaustive():
    for q in range(-17, 18):
        x = QuarterInt(q)
        flags = [x.is_integer(), x.is_half_odd(), x.is_quarter_class(), x.is_three_quarter_class()]
        assert sum(flags) == 1


def test_quarter_int_arithmetic():
    a = QuarterInt.of(Fraction(3, 4))
    b = QuarterInt.of(Fraction(-1, 2))
    assert (a + b).as_fraction() == Fraction(1, 4)
    assert (-a).q == -3
    assert b < a
    with pytest.raises(ValueError):
        QuarterInt.of(Fraction(1, 3))


def transposed(m):
    return ExactMatrix(m.cols, m.rows, {(c, r): val for (r, c), val in m.entries.items()})


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
        prod = left * right
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
        assert_matches(x.conjugate(), RefQi(p, -q))
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
            x.conjugate().conjugate(),
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
