"""The names the benchmark hooks and reads stay in place.

perfbench/ wraps a2twist functions by name at run time; a renamed or
reshaped target makes a traced run drop metrics while still exiting 0.
This runs a small traced dims and verify through the CLI, as a benchmark
worker does, and asks for every per-layer metric and kernel figure.
"""

import os
import sys

import pytest

from a2twist import envelope
from a2twist.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

CALLS = [
    ["dims", "--cutoff", "8", "--format", "json"],
    [
        "verify", "--suites", "relations,brackets,quadratic,exchange,presentation,morphisms,stability",
        "--cutoff", "4", "--presentation-cutoff", "4", "--format", "json",
    ],
]


@pytest.fixture(scope="module")
def perfbench():
    if not os.path.isdir(PERFBENCH):
        pytest.skip("no perfbench/ beside the tests")
    sys.path.insert(0, PERFBENCH)
    try:
        import kernels
        import run
        import tracing

        yield kernels, run, tracing
    finally:
        sys.path.remove(PERFBENCH)


def test_traced_run_reports_every_layer_metric(perfbench, capsys):
    _, run, tracing = perfbench
    tracer = tracing.Tracer()
    tracer.install_layers()
    try:
        for argv in CALLS:
            assert main(list(argv)) == 0, argv
            tracer.end_call()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert tracer.dead_hooks == set()
    err = capsys.readouterr().err
    for phrase in ("cannot hook", "stopped counting", "unreported"):
        assert phrase not in err
    # every per-layer metric that run.py reads from a traced worker
    from_layers = {
        name
        for name in run.PER_LAYER
        if not name.startswith("kernel.")
        and not name.endswith(".checks")
        and name not in ("suite.quadratic.skipped", "trace.overhead_s")
    }
    assert set(metrics) == from_layers
    assert metrics["scalar.inserts"] > 0 and metrics["fock.image_requests"] > 0
    # a suite hook that never fires (the CLI calling a check it bound before
    # the tracer rebound it) reads 0 s while the hook itself stays alive
    suites = CALLS[1][CALLS[1].index("--suites") + 1].split(",")
    assert all(metrics["suite.%s.s" % suite] > 0 for suite in suites), metrics


def test_kernel_microbenchmarks_find_their_entry_points(perfbench, capsys):
    kernels, run, _ = perfbench
    figures = kernels.measure()
    assert set(figures) == {name for name in run.PER_LAYER if name.startswith("kernel.")}
    assert all(value > 0 for value in figures.values())
    assert "perfbench" not in capsys.readouterr().err


def test_every_pbw_straightening_step_runs_under_the_timed_method(monkeypatch, capsys):
    # the envelope.normal_order layer times EnvElement._accumulate_raw; a
    # product that calls _right_step on its own escapes that layer
    accumulate, right_step = envelope.EnvElement._accumulate_raw, envelope._right_step
    depth = [0]
    calls = {"inside": 0, "outside": 0}

    def spy_accumulate(self, *args):
        depth[0] += 1
        try:
            return accumulate(self, *args)
        finally:
            depth[0] -= 1

    def spy_right_step(terms, a):
        calls["inside" if depth[0] else "outside"] += 1
        return right_step(terms, a)

    monkeypatch.setattr(envelope.EnvElement, "_accumulate_raw", spy_accumulate)
    monkeypatch.setattr(envelope, "_right_step", spy_right_step)
    argv = [
        "verify", "--suites", "presentation,morphisms,stability",
        "--cutoff", "8", "--presentation-cutoff", "8", "--format", "json",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls["inside"] > 0 and calls["outside"] == 0, calls
