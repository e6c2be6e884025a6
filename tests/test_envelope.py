import random
from fractions import Fraction

import pytest

from a2twist.envelope import (
    EnvElement,
    IdealSlice,
    R1,
    R12,
    R121,
    _generator_keys,
    _u_sort_key,
    bracket_uu_coeff,
    check_ideal_stability,
    make_R0,
    monomial_charge,
    monomial_negative,
    monomial_qweight4,
    pbw_monomials,
    u_canonical,
)
from a2twist.fock import TwistedFock
from a2twist.scalar import EchelonBasis, GaussianRational, I, ONE


@pytest.fixture(scope="module")
def fock():
    return TwistedFock()


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def generator_list(max_qweight4):
    """All ideal generators of quarter-weight at most the bound."""
    return [(kind, t4, make_R0(kind, t4)) for kind, t4 in _generator_keys(max_qweight4)]


def test_bracket_classes():
    assert bracket_uu_coeff(-3, -1) == Fraction(-1, 2)  # first index in the 1/4 class
    assert bracket_uu_coeff(-1, -3) == Fraction(1, 2)
    assert bracket_uu_coeff(-1, -5) is None  # sum not integral
    assert bracket_uu_coeff(1, -1) == Fraction(-1, 2)
    # [u(-1/4), u(-3/4)] = (1/2) z(-1), [u(-1/4), u(-5/4)] = 0, and z is central
    def u(n4):
        return EnvElement.monomial([], [n4])

    z = EnvElement.monomial([-4], [])
    assert u(-1) * u(-3) - u(-3) * u(-1) == EnvElement.monomial([-4], [], gr(Fraction(1, 2)))
    assert (u(-1) * u(-5) - u(-5) * u(-1)).is_zero()
    assert (z * u(-1) - u(-1) * z).is_zero()


def test_bracket_antisymmetry_and_jacobi():
    for m4 in range(-16, 17):
        if m4 % 2 == 0:
            continue
        for n4 in range(-16, 17):
            if n4 % 2 == 0:
                continue
            a = bracket_uu_coeff(m4, n4)
            b = bracket_uu_coeff(n4, m4)
            if a is None:
                assert b is None
            else:
                assert a == -b
    # the derived subalgebra is central, so all double brackets vanish and
    # the Jacobi identity is the statement that z is central: check by
    # normal ordering u(a)u(b)u(c) both ways
    rng = random.Random(5)
    odd = [n for n in range(-9, 10) if n % 2]
    for _ in range(30):
        a4, b4, c4 = rng.choice(odd), rng.choice(odd), rng.choice(odd)
        x = EnvElement.monomial([], [a4]) * (
            EnvElement.monomial([], [b4]) * EnvElement.monomial([], [c4])
        )
        y = (EnvElement.monomial([], [a4]) * EnvElement.monomial([], [b4])) * EnvElement.monomial(
            [], [c4]
        )
        assert x == y


def test_u_canonical_order():
    assert u_canonical([-3, -1]) == (-1, -3)
    assert u_canonical([1, -1, -1]) == (-1, -1, 1)
    assert u_canonical([3, 1, -5]) == (-5, 3, 1)


def test_normal_order_examples(fock):
    # u(-3/4) u(-1/4) = u(-1/4) u(-3/4) - (1/2) z(-1)
    e = EnvElement.monomial([], [-3, -1])
    assert e.terms == {
        ((), (-1, -3)): ONE,
        ((-4,), ()): gr(Fraction(-1, 2)),
    }
    # operator fidelity of the same rewriting
    vac = fock.vacuum()
    direct = fock.apply("a1", -3, fock.apply("a1", -1, vac))
    assert e.evaluate(fock, {}) == direct
    # already canonical forms pass through
    e2 = EnvElement.monomial([-4], [-1])
    assert e2.terms == {((-4,), (-1,)): ONE}
    # annihilator straightening: u(1/4) u(-1/4) u(-1/4)
    e3 = EnvElement.monomial([], [1, -1, -1])
    assert set(e3.terms) == {((), (-1, -1, 1)), ((0,), (-1,))}
    assert e3.terms[((0,), (-1,))] == gr(-1)  # two transpositions, -1/2 each


def test_normal_order_operator_fidelity_random(fock):
    rng = random.Random(11)
    odd = [-1, -3, -5, 1, 3]
    vac = fock.vacuum()
    for _ in range(25):
        word = [rng.choice(odd) for _ in range(rng.randint(2, 4))]
        elt = EnvElement.monomial([], word)
        direct = vac
        for n4 in reversed(word):
            direct = fock.apply("a1", n4, direct)
        assert elt.evaluate(fock, {}) == direct


def test_bracket_matches_operator_commutators(fock):
    vac = fock.vacuum()
    test_vectors = [vac, fock.apply("a1", -5, vac), fock.apply("a12", -4, vac)]
    odd = [-5, -3, -1, 1, 3]
    for m4 in odd:
        for n4 in odd:
            coeff = bracket_uu_coeff(m4, n4)
            for v in test_vectors:
                lhs = fock.apply("a1", m4, fock.apply("a1", n4, v)) - fock.apply(
                    "a1", n4, fock.apply("a1", m4, v)
                )
                if coeff is None:
                    assert lhs.is_zero()
                else:
                    assert lhs == fock.apply("a12", m4 + n4, v).scale(gr(coeff))


def test_R0_frozen_forms():
    r = make_R0(R1, 2)
    assert r.terms == {((), (-1, -1)): gr(2), ((), (-3, 1)): gr(2)}
    assert make_R0(R12, 8).terms == {((-4, -4), ()): ONE}
    assert make_R0(R121, 5).terms == {((-4,), (-1,)): ONE}
    # weight-one generator after projection: 4 u(-1/4)u(-3/4) - (3/2) z(-1)
    proj = make_R0(R1, 4).project_negative()
    assert proj.terms == {
        ((), (-1, -3)): gr(4),
        ((-4,), ()): gr(Fraction(-3, 2)),
    }


def test_R0_admissibility():
    with pytest.raises(ValueError):
        make_R0(R1, 1)
    with pytest.raises(ValueError):
        make_R0(R12, 6)
    with pytest.raises(ValueError):
        make_R0(R121, 4)
    names = [(k, t4) for k, t4, _ in generator_list(8)]
    assert (R1, 2) in names and (R12, 8) in names and (R121, 5) in names


def test_R0_gradings():
    for kind, t4, gen in generator_list(12):
        grade = gen.grade()
        assert grade is not None
        charge, q4 = grade
        assert q4 == t4
        assert charge == {R1: 2, R12: 4, R121: 3}[kind]


def test_R0_kill_vacuum(fock):
    for kind, t4, gen in generator_list(16):
        assert gen.evaluate(fock, {}).is_zero(), (kind, t4)


def test_pbw_enumeration():
    assert pbw_monomials(1, 1) == [((), (-1,))]
    assert pbw_monomials(2, 2) == [((), (-1, -1))]
    assert sorted(pbw_monomials(2, 4)) == sorted([((-4,), ()), ((), (-1, -3))])
    # three pure odd-mode words plus two with one central factor
    assert len(pbw_monomials(3, 9)) == 5
    for mono in pbw_monomials(3, 9):
        assert monomial_charge(mono) == 3
        assert monomial_qweight4(mono) == 9
    # every grade to quarter-weight 16 against all partitions of the weight:
    # odd parts are u quanta (charge 1), multiples of 4 are z quanta (charge 2)
    for l in range(17):
        want = {}
        for parts in _partitions(l, l):
            if any(p % 4 == 2 for p in parts):
                continue
            z = tuple(-p for p in reversed(parts) if p % 4 == 0)
            u = tuple(-p for p in reversed(parts) if p % 2)
            want.setdefault(len(u) + 2 * len(z), []).append((z, u))
        for k in range(l + 1):
            assert pbw_monomials(k, l) == sorted(want.get(k, [])), (k, l)


def _partitions(total, most):
    """Partitions of total into parts at most most, parts descending."""
    if total == 0:
        yield ()
        return
    for p in range(min(total, most), 0, -1):
        for rest in _partitions(total - p, p):
            yield (p,) + rest


def test_ideal_bucket_examples(fock):
    slice_ = IdealSlice()

    def rank(charge, q4):
        basis = EchelonBasis()
        for elt in slice_.bucket_span(charge, q4):
            basis.insert(elt.terms)
        return len(basis)

    assert rank(1, 1) == 0
    assert rank(2, 2) == 1  # the square of the lowest mode is a relation
    assert rank(2, 4) == 1
    assert rank(4, 8) == 4
    # evaluation kills every ideal vector
    for key in ((2, 2), (2, 4), (3, 9), (4, 8)):
        for elt in slice_.bucket_span(*key):
            assert elt.evaluate(fock, {}).is_zero()


def test_ideal_dressing_bound_saturates():
    for key in ((2, 4), (2, 8), (3, 9), (4, 12)):
        ranks = []
        for slack in (0, 4):
            basis = EchelonBasis()
            for elt in IdealSlice(slack4=slack).bucket_span(*key):
                basis.insert(elt.terms)
            ranks.append(len(basis))
        assert ranks[0] == ranks[1], key


def test_shift_is_algebra_homomorphism():
    rng = random.Random(3)
    odd = [-1, -3, -5, 1]
    zmodes = [-4, -8, 0]
    for _ in range(20):
        a = EnvElement.monomial(
            [rng.choice(zmodes)], [rng.choice(odd) for _ in range(rng.randint(0, 2))]
        )
        b = EnvElement.monomial([], [rng.choice(odd) for _ in range(rng.randint(1, 2))])
        for direction in (1, -1):
            assert (a * b).shift(direction) == a.shift(direction) * b.shift(direction)
        assert a.shift(1).shift(-1) == a


def test_shift_examples():
    e = EnvElement.monomial([], [-3])
    assert e.shift(1) == EnvElement.monomial([], [-1], gr(0, -1))
    e2 = EnvElement.monomial([-8], [-5])
    assert e2.shift(1) == EnvElement.monomial([-4], [-3], gr(0, -1))


def test_shift_grading():
    for mono in pbw_monomials(3, 9) + pbw_monomials(2, 6):
        e = EnvElement({mono: ONE})
        k, q4 = e.grade()
        img = e.shift(1)
        for m in img.terms:
            assert monomial_charge(m) == k
            assert monomial_qweight4(m) == q4 - 2 * k


def test_companion_map(fock):
    one = EnvElement.unit()
    assert one.psi() == EnvElement.monomial([], [-1])
    rng = random.Random(9)
    for _ in range(15):
        word = [rng.choice([-1, -3, -5]) for _ in range(rng.randint(0, 3))]
        a = EnvElement.monomial([], word)
        assert a.shift(1).psi() == a.right_mul_u(-1)
    # evaluation example
    got = EnvElement.monomial([], [-1]).psi().evaluate(fock, {})
    want = fock.apply("a1", -3, fock.apply("a1", -1, fock.vacuum())).scale(I)
    assert got == want


def test_ideal_stability():
    rep = check_ideal_stability()
    assert rep.passed
    bs = set(tuple(sorted(v.items())) for v in rep.details["solved_b"].values())
    ds = set(tuple(sorted(v.items())) for v in rep.details["solved_d"].values())
    assert len(bs) == 1 and len(ds) == 1  # constants independent of the degree
    assert rep.details["solved_b"]["1"] == {"re": "-2", "im": "0"}
    assert rep.details["solved_d"]["7/4"] == {"re": "-1/2", "im": "0"}


# --- the closed forms against the straightforward constructions ------------


def _random_canonical(rng, n_terms=3):
    """A Q(i)-combination of normal-ordered random words, nonnegative u-modes
    and z(0) included."""
    odd = [-7, -5, -3, -1, 1, 3, 5]
    zmodes = [-8, -4, 0]
    out = EnvElement()
    for _ in range(n_terms):
        z = [rng.choice(zmodes) for _ in range(rng.randint(0, 2))]
        u = [rng.choice(odd) for _ in range(rng.randint(0, 4))]
        coeff = gr(rng.randint(-3, 3) or 1, rng.randint(-2, 2))
        out = out + EnvElement.monomial(z, u, coeff)
    return out


def _stack_left_mul(elt, gen):
    """Left multiplication by the letter gen = ("u" or "z", quarter mode)
    through the generic straightening stack."""
    label, n4 = gen
    out = EnvElement()
    for (z, u), coeff in elt.terms.items():
        if label == "z":
            out._accumulate_raw(z + (n4,), u, coeff)
        else:
            out._accumulate_raw(z, (n4,) + u, coeff)
    return out


def _left_mul(elt, gen):
    """gen times elt in closed form, for a letter gen = ("u" or "z", quarter
    mode)."""
    label, n4 = gen
    return elt._left_mul_word((n4,), ()) if label == "z" else elt._left_mul_word((), (n4,))


def _right_mul(elt, gen):
    """elt times gen; z is central, so it multiplies on either side alike."""
    label, n4 = gen
    return _left_mul(elt, gen) if label == "z" else elt.right_mul_u(n4)


def _chain_evaluate(fock, elt):
    """Each term applied to the vacuum rightmost factor first, summed."""
    total = fock.vacuum().scale(gr(0))
    for (z, u), coeff in elt.terms.items():
        v = fock.vacuum()
        for n4 in reversed(u):
            v = fock.apply("a1", n4, v)
        for m4 in reversed(z):
            v = fock.apply("a12", m4, v)
        total = total + v.scale(coeff)
    return total


def test_projection_commutes_with_left_multiplication():
    rng = random.Random(23)
    negative = [("u", n4) for n4 in (-7, -5, -3, -1)] + [("z", m4) for m4 in (-8, -4)]
    right_differs = 0
    for _ in range(300):
        x = _random_canonical(rng)
        g = rng.choice(negative)
        assert _left_mul(x, g).project_negative() == _left_mul(x.project_negative(), g)
        if _right_mul(x, g).project_negative() != _right_mul(x.project_negative(), g):
            right_differs += 1
    # the nonnegative monomials form a left ideal, not a right one
    assert right_differs > 0


def test_closed_form_left_mul_matches_stack_path():
    rng = random.Random(31)
    gens = [("u", n4) for n4 in range(-9, 10, 2)] + [("z", m4) for m4 in (-8, -4, 0, 4)]
    for _ in range(200):
        x = _random_canonical(rng, rng.randint(1, 4))
        for g in rng.sample(gens, 4):
            assert _left_mul(x, g) == _stack_left_mul(x, g), (x, g)


def test_word_product_matches_letter_chain_and_stack_path():
    rng = random.Random(37)
    odd = [-7, -5, -3, -1, 1, 3, 5]
    for _ in range(200):
        z = tuple(sorted((rng.choice([-8, -4, 0, 4]) for _ in range(rng.randint(0, 2))), reverse=True))
        u = u_canonical([rng.choice(odd) for _ in range(rng.randint(1, 4))])
        x = _random_canonical(rng, rng.randint(1, 4))
        # u(a)u(n) - [u(n), u(a)] for the first letter moved in, n: the bracket
        # left by passing u(a) cancels the product of the second term
        n = u[-1]
        partners = [a for a in odd if (a + n) % 4 == 0 and _u_sort_key(a) < _u_sort_key(n)]
        if partners:
            a = rng.choice(partners)
            br = GaussianRational(bracket_uu_coeff(n, a))
            cancelling = EnvElement.monomial([], [a, n]) - EnvElement.monomial([n + a], [], br)
            assert ((n + a,), (n,)) not in cancelling._left_mul_word((), (n,)).terms
            x = x + cancelling
        chain = x
        for n4 in reversed(u):
            chain = chain._left_mul_word((), (n4,))
        for m4 in reversed(z):
            chain = chain._left_mul_word((m4,), ())
        got = x._left_mul_word(z, u)
        assert got == chain == EnvElement.monomial(z, u) * x, (z, u, x)


def test_table_evaluation_matches_operator_chain(fock):
    table = {}
    for l in range(13):
        for k in range(l + 1):
            for mono in pbw_monomials(k, l):
                a = EnvElement({mono: ONE})
                for elt in (a, a.shift(1), a.psi()):
                    want = _chain_evaluate(fock, elt)
                    assert elt.evaluate(fock, table) == want, mono
                    assert elt.evaluate(fock, {}) == want, mono
    # one entry per monomial met, each the operator chain on its own
    for mono, v in table.items():
        assert v == _chain_evaluate(fock, EnvElement({mono: ONE}))


def _dressed_per_weight(max_qweight4, slack4):
    """The dressing rebuilt from scratch for one weight bound."""
    out = []
    for kind, t4, gen in generator_list(max_qweight4):
        n_u = 2 if kind == R1 else (1 if kind == R121 else 0)
        bound = t4 + slack4
        dressings = [()]
        if n_u >= 1:
            dressings += [(a,) for a in range(1, bound + 1, 2)]
        if n_u >= 2:
            dressings += [(a, b) for a in range(1, bound + 1, 2) for b in range(a, bound + 1, 2)]
        for dress in dressings:
            elt = gen
            for a4 in dress:
                elt = _stack_left_mul(elt, ("u", a4))
            proj = elt.project_negative()
            if not proj.is_zero():
                out.append(proj)
    return out


def test_dressed_generators_match_per_weight_construction():
    for slack in (0, 4):
        slice_ = IdealSlice(slack4=slack)
        for l in list(range(17)) + [9, 3]:
            dressed = [h for key in _generator_keys(l) for h, _ in slice_._dressed[key]]
            assert dressed == _dressed_per_weight(l, slack), (slack, l)
        assert len(slice_._dressed) == len(generator_list(16))


def test_bucket_span_matches_projected_products():
    slice_ = IdealSlice()
    for l in range(13):
        for k in range(l + 1):
            want = []
            for h in _dressed_per_weight(l, 0):
                gk, gq = h.grade()
                if k - gk < 0 or l - gq < k - gk:
                    continue
                for z, u in pbw_monomials(k - gk, l - gq):
                    elt = h
                    for n4 in reversed(u):
                        elt = _stack_left_mul(elt, ("u", n4))
                    for m4 in reversed(z):
                        elt = _stack_left_mul(elt, ("z", m4))
                    proj = elt.project_negative()
                    if not proj.is_zero():
                        want.append(proj)
            got = slice_.bucket_span(k, l)
            assert got == want, (k, l)
            assert all(monomial_negative(m) for elt in got for m in elt.terms)
