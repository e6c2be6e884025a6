"""Tests of the benchmark's own output checks; no a2twist run needed."""

import itertools
import json
import os
import time

import pytest

from checks import (
    CheckFailed,
    check_dims,
    check_distinct_mode_finding,
    check_morphism_constants,
    check_suites,
    distinct_odd_counts,
)


def brute_count(k, n):
    odd = range(1, n + 1, 2)
    return sum(1 for parts in itertools.combinations(odd, k) if sum(parts) == n)


def dims_doc(cutoff):
    counts = distinct_odd_counts(cutoff)
    rows = [
        {"charge": k, "qweight": l, "dim": counts[k][l], "oracle": counts[k][l], "match": True}
        for l in range(cutoff + 1)
        for k in range(l + 1)
    ]
    return {"cutoff": cutoff, "buckets": rows}


def test_generating_function_matches_brute_force():
    counts = distinct_odd_counts(24)
    for n in range(25):
        for k in range(n + 1):
            assert counts[k][n] == brute_count(k, n), (k, n)


def test_dims_accepts_correct_table():
    assert check_dims(dims_doc(12), 12) == 13 * 14 // 2


@pytest.mark.parametrize("delta", [1, -1])
def test_dims_rejects_row_off_by_one(delta):
    doc = dims_doc(12)
    row = next(r for r in doc["buckets"] if (r["charge"], r["qweight"]) == (2, 10))
    row["dim"] += delta
    with pytest.raises(CheckFailed):
        check_dims(doc, 12)


def test_dims_rejects_missing_row():
    doc = dims_doc(12)
    doc["buckets"].pop()
    with pytest.raises(CheckFailed):
        check_dims(doc, 12)


def suites_doc(checked):
    return {"suites": [{"name": "bracket-table", "pass": True, "checked": checked}]}


def test_suite_with_zero_checks_rejected():
    with pytest.raises(CheckFailed, match="0 checks"):
        check_suites(suites_doc(0), {"bracket-table": 0})


def test_suite_below_floor_or_failing_rejected():
    assert check_suites(suites_doc(5), {"bracket-table": 5}) == {"bracket-table": 5}
    with pytest.raises(CheckFailed, match="floor"):
        check_suites(suites_doc(4), {"bracket-table": 5})
    doc = suites_doc(5)
    doc["suites"][0]["pass"] = False
    with pytest.raises(CheckFailed):
        check_suites(doc, {"bracket-table": 5})


def test_distinct_mode_finding():
    finding = {
        "(0, 0)": {"distinct_mode_words": 1, "independent": True, "spanning": True},
        "(2, 8)": {"distinct_mode_words": 2, "independent": True, "spanning": True},
    }
    assert check_distinct_mode_finding({"details": {"distinct_mode_basis_finding": finding}}) == 2
    finding["(2, 8)"]["distinct_mode_words"] = 3
    with pytest.raises(CheckFailed):
        check_distinct_mode_finding({"details": {"distinct_mode_basis_finding": finding}})


def test_morphism_constants():
    constants = {
        "0": {"re": "2", "im": "2"},
        "1": {"re": "2", "im": "-2"},
        "2": {"re": "-2", "im": "-2"},
        "3": {"re": "-2", "im": "2"},
        "4": {"re": "2", "im": "2"},
    }
    report = {"details": {"constants_by_charge": constants, "single_global_constant_exists": False}}
    assert check_morphism_constants(report) == 5
    report["details"]["single_global_constant_exists"] = True
    with pytest.raises(CheckFailed):
        check_morphism_constants(report)
    report["details"]["single_global_constant_exists"] = False
    constants["3"] = {"re": "2", "im": "2"}
    with pytest.raises(CheckFailed):
        check_morphism_constants(report)


def test_benchmark_json_lists_every_reported_metric():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside the benchmark")
    from run import END_TO_END, PER_LAYER

    with open(path) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER


def test_tracer_self_time_and_missing_hook(monkeypatch):
    fock = pytest.importorskip("a2twist.fock")
    from tracing import Tracer

    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        inner_span()

    inner_span = tracer.span("inner", inner)
    tracer.span("outer", outer)()
    assert list(tracer.span_parent) == [-1, 0]
    assert 0.015 < tracer._seconds("outer") < tracer._seconds("outer", False) - 0.015
    monkeypatch.delattr(fock.TwistedFock, "_image_raw")  # as if a later change removed it
    tracer.hook("a2twist.fock", "TwistedFock._image_raw", "fock.image")
    metrics = tracer.layer_metrics()
    assert "fock.images" not in metrics and "fock.image_hit_ratio" not in metrics
    assert metrics["scalar.inserts"] == 0
