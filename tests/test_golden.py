"""Canonical JSON of five fixed command lines, byte for byte against fixtures
committed under tests/golden/.  A change that alters any count, scalar or
key order in this output shows up here."""

import os

import pytest

from a2twist.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = [
    ("verify_default.json", ["verify", "--format", "json"]),
    ("verify_cutoff12.json", ["verify", "--cutoff", "12", "--format", "json"]),
    ("dims_cutoff24.json", ["dims", "--cutoff", "24", "--format", "json"]),
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
