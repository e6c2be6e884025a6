import itertools
from collections import Counter

import pytest

from a2twist import envelope
from a2twist.analyzer import (
    PrincipalSubspace,
    _slice_rank,
    check_exact_sequence,
    check_morphisms,
    check_oracle,
    check_presentation,
    check_recursion,
    distinct_odd_partitions,
    partition_oracle,
    solve_raising_constant,
)
from a2twist.envelope import EnvElement, IdealSlice, pbw_monomials
from a2twist.fock import TwistedFock
from a2twist.scalar import ONE, EchelonBasis, GaussianRational


@pytest.fixture(scope="module")
def fock():
    return TwistedFock()


@pytest.fixture(scope="module")
def space(fock):
    return PrincipalSubspace(fock, 16)


def test_partition_oracle_values():
    assert partition_oracle(2, 8) == 2  # {1,7}, {3,5}
    assert sorted(distinct_odd_partitions(8, 2)) == [(5, 3), (7, 1)]
    assert partition_oracle(0, 0) == 1
    assert partition_oracle(1, 6) == 0
    assert partition_oracle(3, 9) == 1  # {5,3,1}
    assert partition_oracle(2, 40) == 10
    assert partition_oracle(1, 7) == 1
    assert partition_oracle(-1, 3) == 0


def test_oracle_against_brute_enumeration():
    # cross-check the counting against a second, independent enumeration
    for n in range(0, 22):
        by_m = {}
        odds = [p for p in range(1, n + 1) if p % 2]
        for r in range(0, 5):
            count = 0
            for combo in itertools.combinations(odds, r):
                if sum(combo) == n:
                    count += 1
            by_m[r] = count
        for m, want in by_m.items():
            assert partition_oracle(m, n) == want


def test_small_dimensions(space):
    table = space.table()
    assert table[0, 0] == 1
    for l in range(1, 17):
        assert table[1, l] == (1 if l % 2 else 0)
    assert table[2, 4] == 1
    assert table[2, 2] == 0
    assert table[2, 8] == 2
    assert table[3, 9] == 1
    assert table[4, 16] == 1


def test_oracle_and_recursion(space):
    table = space.table()
    assert check_oracle(table).passed
    assert check_recursion(table).passed


def test_recursion_detects_corruption(space):
    broken = space.table()
    broken[(2, 8)] = 5
    assert not check_recursion(broken).passed
    assert not check_oracle(broken).passed


def test_exact_sequence(fock, space):
    rep = check_exact_sequence(fock, space, 14)
    assert rep.passed
    assert rep.checked > 100


def test_presentation(fock, space):
    rep = check_presentation(fock, space.table(), 10)
    assert rep.passed
    finding = rep.details["distinct_mode_basis_finding"]
    # the distinct-odd-mode words happen to give a per-bucket basis
    assert all(v["independent"] and v["spanning"] for v in finding.values())


def test_morphisms(fock):
    rep = check_morphisms(fock, 10)
    assert rep.passed
    assert rep.details["constant_charge_zero"] == {"re": "2", "im": "2"}
    constants = rep.details["constants_by_charge"]
    assert constants["0"] == {"re": "2", "im": "2"}
    assert constants["1"] == {"re": "2", "im": "-2"}
    # the raising/companion constant genuinely depends on the charge
    assert rep.details["single_global_constant_exists"] is False


def test_morphisms_apply_each_operator_once_per_vector():
    # one table of vacuum images serves the whole suite, so no a1/a12
    # application repeats, except a1(-1/4) on the vacuum, which the
    # raising-on-vacuum identity asks for directly
    fock = TwistedFock()
    calls = Counter()
    apply = fock.apply

    def counted(kind, n4, vec):
        if kind in ("a1", "a12"):
            calls[(kind, n4, frozenset(vec.terms.items()))] += 1
        return apply(kind, n4, vec)

    fock.apply = counted
    assert check_morphisms(fock, 12).passed
    vacuum = frozenset(fock.vacuum().terms.items())
    assert {key: n for key, n in calls.items() if n > 1} == {("a1", -1, vacuum): 2}


def test_raising_constant(fock):
    assert solve_raising_constant(fock, {}) == GaussianRational(2, 2)


def test_repeat_build_determinism(fock):
    # a warm engine (the shared fixture) and a cold one build the same bases,
    # down to the order of each vector's terms
    a = PrincipalSubspace(fock, 12)
    b = PrincipalSubspace(TwistedFock(), 12)
    assert a.table() == b.table()
    for key in a.bases:
        assert [list(v.terms.items()) for v in a.bases[key]] == [list(v.terms.items()) for v in b.bases[key]]


def test_candidates_after_the_build_match_a_fresh_build():
    # the per-level expansion table is dropped when the build ends, and
    # _candidates still serves buckets of any level afterwards (the
    # benchmark's echelon kernel asks a table built to 20 for bucket (3, 21))
    seen = {}

    class Recording(PrincipalSubspace):
        def _candidates(self, k, l):
            out = seen[(k, l)] = super()._candidates(k, l)
            return out

    Recording(TwistedFock(), 13)
    fock = TwistedFock()
    built = PrincipalSubspace(fock, 12)
    assert built._expansions == {} and fock._mono_cache == {}
    for key in ((3, 13), (2, 12), (3, 11), (1, 13), (3, 13), (2, 8)):
        got = [list(v.terms.items()) for v in built._candidates(*key)]
        assert got == [list(v.terms.items()) for v in seen[key]], key
    assert fock._mono_cache == {}


def test_graded_dimension_helper(fock):
    table = PrincipalSubspace(fock, 8).table()
    assert table[2, 6] == 1
    assert table[5, 7] == 0


# --- fault injection: the presentation suite must catch a broken envelope ---


def test_dropped_bracket_fails_presentation(fock, monkeypatch):
    monkeypatch.setattr(envelope, "bracket_uu_coeff", lambda m4, n4: None)
    assert not check_presentation(fock, PrincipalSubspace(fock, 10).table(), 10).passed


def test_evaluation_ignoring_central_part_fails_presentation(fock, monkeypatch):
    vacuum_image = envelope.vacuum_image

    def mutant(fock_, mono, table):
        return vacuum_image(fock_, ((), mono[1]), table)

    monkeypatch.setattr(envelope, "vacuum_image", mutant)
    assert not check_presentation(fock, PrincipalSubspace(fock, 10).table(), 10).passed


def test_negated_bracket_fails_presentation(fock, monkeypatch):
    bracket = envelope.bracket_uu_coeff

    def mutant(m4, n4):
        br = bracket(m4, n4)
        return None if br is None else -br

    monkeypatch.setattr(envelope, "bracket_uu_coeff", mutant)
    assert not check_presentation(fock, PrincipalSubspace(fock, 10).table(), 10).passed


# --- the slice rank that stops eliminating once the slice is full -----------


def test_slice_rank_is_the_exact_rank():
    filled_early = 0
    for slack in (0, 4):
        slice_ = IdealSlice(slack4=slack)
        for l in range(17):
            for k in range(l + 1):
                monos = pbw_monomials(k, l)
                span = slice_.bucket_span(k, l)
                rank = _slice_rank(span, monos)
                assert rank == len(EchelonBasis().extend(span)), (slack, k, l)
                filled_early += rank == len(monos) and rank < len(span)
    assert filled_early > 0  # full slices with dependent vectors, where the skip acts


def test_stray_vector_in_a_full_slice_fails_presentation(fock, monkeypatch):
    # (4, 8) has no module bucket: its 4 PBW monomials are all in the ideal.
    # The stray u(-1/4)^2 has grade (2, 2), which has no module bucket either,
    # so it evaluates to zero and only the rank can catch it.  It comes
    # first, before the slice fills: counting it as one of the 4 rows would
    # skip a needed vector and report the exact count the check expects.
    stray = EnvElement({((), (-1, -1)): ONE})
    assert stray.evaluate(fock, {}).is_zero()
    bucket_span = IdealSlice.bucket_span

    def mutant(self, charge, qweight4):
        span = bucket_span(self, charge, qweight4)
        return [stray] + span if (charge, qweight4) == (4, 8) else span

    monkeypatch.setattr(IdealSlice, "bucket_span", mutant)
    rep = check_presentation(fock, PrincipalSubspace(fock, 10).table(), 10)
    assert not rep.passed
    (failure,) = [f for f in rep.failures if "ideal_rank" in f]
    exact = len(EchelonBasis().extend(mutant(IdealSlice(), 4, 8)))
    assert failure["bucket"] == (4, 8) and failure["ideal_rank"] == exact == 5
