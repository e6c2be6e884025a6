"""Canonical JSON of six fixed command lines, and the reports of four
operator sweeps under known faults, byte for byte against fixtures
committed under tests/golden/.  A change that alters any count, scalar,
key order or failure detail in this output shows up here."""

import json
import os

import pytest

import a2twist.suites as suites
from a2twist.cli import main
from a2twist.fock import TwistedFock

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = [
    ("verify_default.json", ["verify", "--format", "json"]),
    ("verify_cutoff12.json", ["verify", "--cutoff", "12", "--format", "json"]),
    ("dims_cutoff24.json", ["dims", "--cutoff", "24", "--format", "json"]),
    ("dims_cutoff40.json", ["dims", "--cutoff", "40", "--format", "json"]),
    (
        "verify_envelope_cutoff16.json",
        [
            "verify", "--suites", "presentation,morphisms,stability",
            "--cutoff", "16", "--presentation-cutoff", "16", "--format", "json",
        ],
    ),
    (
        "verify_envelope_cutoff22.json",
        [
            "verify", "--suites", "presentation,morphisms,stability",
            "--cutoff", "22", "--presentation-cutoff", "22", "--format", "json",
        ],
    ),
]


@pytest.mark.parametrize("fixture,argv", CASES, ids=[name for name, _ in CASES])
def test_output_is_byte_identical(capsys, fixture, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, fixture), encoding="utf-8", newline="") as fh:
        assert out == fh.read()


def _negated_sign(monkeypatch):
    sign = suites.component_sign
    monkeypatch.setattr(suites, "component_sign", lambda n4: -sign(n4))


def _doubled_a1_bracket(monkeypatch):
    coeff = suites.bracket_coeff

    def doubled(left, right, m4):
        c = coeff(left, right, m4)
        return c.scale_frac(2) if left == right == "a1" else c

    monkeypatch.setattr(suites, "bracket_coeff", doubled)


def _doubled_central_f0(monkeypatch):
    # every engine made from here on contracts the fixed boson of the
    # central component with twice its factor
    init = TwistedFock.__init__

    def doubled(self, *args, **kwargs):
        init(self, *args, **kwargs)
        data = self.vertex["a12"]
        self.vertex["a12"] = data._replace(f0=2 * data.f0)

    monkeypatch.setattr(TwistedFock, "__init__", doubled)


FAILURES = [
    ("failures_relations_sign.json", _negated_sign, lambda fock: suites.check_linear_relations(fock, 12)),
    ("failures_brackets_sign.json", _negated_sign, lambda fock: suites.check_brackets(fock, 12, max_mode4=8)),
    (
        "failures_brackets_a1a1_doubled.json",
        _doubled_a1_bracket,
        lambda fock: suites.check_brackets(fock, 12, max_mode4=8),
    ),
    (
        "failures_quadratic_a12_f0_doubled.json",
        _doubled_central_f0,
        lambda fock: suites.check_quadratic_relations(fock, 4, t4_max=12, max_intermediate=16),
    ),
]


@pytest.mark.parametrize("fixture,mutant,sweep", FAILURES, ids=[name for name, _, _ in FAILURES])
def test_failure_report_is_byte_identical(monkeypatch, fixture, mutant, sweep):
    # the whole report of a sweep that fails: its first failures in order,
    # checked and details
    mutant(monkeypatch)
    out = json.dumps(sweep(TwistedFock()).as_dict(), sort_keys=True, indent=1, default=str) + "\n"
    with open(os.path.join(GOLDEN, fixture), encoding="utf-8", newline="") as fh:
        assert out == fh.read()
