"""Acceptance suite: every headline identity at its full verification depth.

All arithmetic is exact, so every tolerance is exact equality.  Each test
prints one pass/fail line; the heavyweight graded table (weight cutoff 40)
is built once and shared.
"""

import time

import pytest

from a2twist.analyzer import (
    PrincipalSubspace,
    check_exact_sequence,
    check_morphisms,
    check_oracle,
    check_presentation,
    check_recursion,
)
from a2twist.envelope import check_ideal_stability
from a2twist.fock import TwistedFock
from a2twist.groups import group_invariant_report
from a2twist.suites import (
    check_brackets,
    check_exchange_identity,
    check_linear_relations,
    check_quadratic_relations,
)
from test_fock import aliased_brackets

TABLE_CUTOFF = 40
EXACTNESS_CUTOFF = 30
RELATION_CUTOFF = 24
BRACKET_MODE_BOUND = 12
QUADRATIC_T4_MAX = 24  # degree bound t <= 6
PRESENTATION_CUTOFF = 16
MORPHISM_CUTOFF = 16


def _announce(label, report):
    line = "%s %s (%d checks)" % ("PASS" if report.passed else "FAIL", label, report.checked)
    print(line, flush=True)
    assert report.passed, report.failures[:3]


@pytest.fixture(scope="module")
def fock():
    return TwistedFock()


@pytest.fixture(scope="module")
def space40(fock):
    t0 = time.time()
    space = PrincipalSubspace(fock, TABLE_CUTOFF)
    print("graded table to weight %d built in %.1fs (single-threaded)" % (TABLE_CUTOFF, time.time() - t0))
    return space


def test_criterion_01_partition_identity(space40):
    rep = check_oracle(space40.table())
    _announce("partition identity: dimensions equal distinct-odd-parts counts to qweight 40", rep)


def test_criterion_02_recursion(space40):
    rep = check_recursion(space40.table())
    _announce("two-term dimension recursion on the full table to qweight 40", rep)


def test_criterion_03_linear_relations(fock):
    rep = check_linear_relations(fock, RELATION_CUTOFF)
    _announce("component mode relations on exact basis-vector images to qweight 24", rep)


def test_criterion_04_bracket_table(fock):
    rep = check_brackets(fock, RELATION_CUTOFF, max_mode4=BRACKET_MODE_BOUND)
    _announce("bracket table equals operator commutators, modes |4n| <= 12, qweight 24", rep)
    rep2 = aliased_brackets(fock, 12, max_mode4=8)
    _announce("bracket table, direct recomputation of aliased families at qweight 12", rep2)


def test_criterion_05_quadratic_relations(fock):
    rep = check_quadratic_relations(
        fock, RELATION_CUTOFF, t4_max=QUADRATIC_T4_MAX, max_intermediate=26
    )
    _announce("quadratic sum families annihilate admissible vectors, t <= 6, qweight 24", rep)
    assert rep.checked > 10000


def test_criterion_06_exact_sequence(fock, space40):
    rep = check_exact_sequence(fock, space40, EXACTNESS_CUTOFF)
    _announce("short exact sequence of raising and lowering maps to qweight 30", rep)


def test_criterion_07_presentation(fock, space40):
    rep = check_presentation(fock, space40.table(), PRESENTATION_CUTOFF)
    _announce("presentation: monomial count minus ideal rank equals dimension, qweight 16", rep)


def test_criterion_08_shift_morphisms(fock):
    rep = check_morphisms(fock, MORPHISM_CUTOFF)
    _announce("lowering map realizes the shift; raising map realizes the companion map", rep)
    # the raising/companion constant is solved once and follows the
    # charge-phase law; a charge-independent constant provably cannot exist
    assert rep.details["constant_charge_zero"] == {"re": "2", "im": "2"}
    assert rep.details["single_global_constant_exists"] is False


def test_criterion_09_ideal_stability(fock):
    rep = check_ideal_stability()
    _announce("shift images of the truncated generators stay in the ideal, t <= 6", rep)
    print("solved decomposition constants: b =", rep.details["solved_b"]["1"], ", d =", rep.details["solved_d"]["7/4"])
    assert rep.details["solved_b"] and rep.details["solved_d"]


def test_criterion_10_group_layer():
    rep = group_invariant_report()
    _announce("group layer: cocycles, lifted involution, character, coset action", rep)


def test_supplement_exchange_identity(fock):
    rep = check_exchange_identity(fock)
    _announce("exponential exchange identity at low orders", rep)
