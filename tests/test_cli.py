import json

import pytest

from a2twist import cli, fock
from a2twist.cli import main
from a2twist.report import Report


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_oracle_command(capsys):
    code, out = run(capsys, ["oracle", "--m", "2", "--n", "8"])
    assert code == 0 and out.strip() == "2"
    code, out = run(capsys, ["oracle", "--m", "0", "--n", "0"])
    assert code == 0 and out.strip() == "1"
    code, out = run(capsys, ["oracle", "--m", "3", "--n", "9"])
    assert code == 0 and out.strip() == "1"


def test_dims_json_round_trip(capsys):
    code, out = run(capsys, ["dims", "--cutoff", "8", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cutoff"] == 8
    rows = {(r["charge"], r["qweight"]): r for r in doc["buckets"]}
    assert rows[(2, 4)]["dim"] == 1 and rows[(2, 4)]["oracle"] == 1 and rows[(2, 4)]["match"]
    assert rows[(2, 2)]["dim"] == 0
    # canonical serialization round-trips byte-identically
    again = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
    assert again == out.strip()


def test_dims_zero_cutoff(capsys):
    code, out = run(capsys, ["dims", "--cutoff", "0", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["buckets"] == [
        {"charge": 0, "qweight": 0, "dim": 1, "oracle": 1, "match": True}
    ]


def test_dims_csv(capsys):
    code, out = run(capsys, ["dims", "--cutoff", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "charge,qweight,dim,oracle,match"
    assert "2,4,1,1,true" in lines


def test_verify_selected_suites(capsys):
    code, out = run(
        capsys,
        ["verify", "--suites", "recursion,oracle", "--cutoff", "12", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tool_version"]
    assert [s["name"] for s in doc["suites"]] == ["recursion", "partition-oracle"]
    assert all(s["pass"] for s in doc["suites"])


def test_verify_group_and_stability(capsys):
    code, out = run(
        capsys, ["verify", "--suites", "group,stability,morphisms", "--cutoff", "8", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    names = {s["name"]: s for s in doc["suites"]}
    assert names["group-layer"]["pass"]
    assert names["ideal-stability"]["details"]["solved_b"]
    assert names["shift-morphisms"]["details"]["single_global_constant_exists"] is False


def test_verify_text_output(capsys):
    code, out = run(capsys, ["verify", "--suites", "presentation", "--cutoff", "10", "--presentation-cutoff", "10"])
    assert code == 0
    assert "presentation" in out and "pass" in out


def test_usage_errors(capsys):
    code, _ = run(capsys, ["verify", "--suites", "nonsense", "--cutoff", "4"])
    assert code == 2
    code, _ = run(capsys, ["verify", "--suites", "oracle", "--cutoff", "4", "--presentation-cutoff", "10"])
    assert code == 2


@pytest.mark.parametrize("suites", ["oracle,oracle", "group,relations,group"])
def test_repeated_suite_exits_2(capsys, monkeypatch, suites):
    def must_not_run(*args):
        raise AssertionError("a suite ran")

    for name in ("check_linear_relations", "group_invariant_report", "check_oracle"):
        monkeypatch.setattr(cli, name, must_not_run)
    code = main(["verify", "--suites", suites, "--cutoff", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "named once" in captured.err


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--cutoff", "-3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--exactness-cutoff", "--presentation-cutoff"])
def test_negative_sub_cutoff_exits_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suites", "exactness,presentation", "--cutoff", "10", flag, "-5", "--format", "json"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_suite_without_checks_fails():
    rep = Report("empty")
    assert not rep.passed
    assert rep.as_dict() == {"name": "empty", "pass": False, "checked": 0}
    rep.record(True)
    assert rep.passed and rep.as_dict()["pass"] is True
    rep.record(False, {"case": 1})
    assert not rep.passed and rep.as_dict()["first_failures"] == [{"case": 1}]


def test_zero_sub_cutoffs_still_check(capsys):
    code, out = run(
        capsys,
        ["verify", "--suites", "exactness,presentation", "--cutoff", "4",
         "--exactness-cutoff", "0", "--presentation-cutoff", "0", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert all(s["pass"] and s["checked"] > 0 for s in doc["suites"])


@pytest.mark.parametrize("exc", [AssertionError("echelon invariant broken"), ValueError("bad mode")])
def test_internal_error_exits_3(capsys, monkeypatch, exc):
    def broken(fock, cutoff):
        raise exc

    monkeypatch.setattr(cli, "check_linear_relations", broken)
    code = main(["verify", "--suites", "relations", "--cutoff", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and type(exc).__name__ in err[0] and str(exc) in err[0]


def test_multiplicity_guard_exits_3(capsys, monkeypatch):
    # a narrower room for multiplicities makes the image kernels' guard trip
    monkeypatch.setattr(fock, "_MODE_SUM_LIMIT", 8)
    code = main(["dims", "--cutoff", "12", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "OverflowError" in err[0]


def test_mismatch_exits_1(capsys, monkeypatch):
    def mismatched(fock, cutoff):
        rep = Report("linear-relations")
        rep.record(False, {"case": 0})
        return rep

    monkeypatch.setattr(cli, "check_linear_relations", mismatched)
    code, out = run(capsys, ["verify", "--suites", "relations", "--cutoff", "4", "--format", "json"])
    assert code == 1
    assert json.loads(out)["suites"][0]["pass"] is False


def test_every_exported_name_exists():
    # `from a2twist import *` reads __all__, so a name left there after its
    # definition is gone would fail on import
    import a2twist

    assert [name for name in a2twist.__all__ if not hasattr(a2twist, name)] == []
