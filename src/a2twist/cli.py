"""Command-line entry point: dimension tables, verification suites, and the
partition oracle, with machine-readable output.

Exit codes: 0 on success, 1 on a verification mismatch or a suite that
checked nothing, 2 on usage errors, 3 on an internal error (one line on
stderr).
All numeric output is integral or an exact rational string; no floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import __version__
from .analyzer import (
    PrincipalSubspace,
    check_exact_sequence,
    check_morphisms,
    check_oracle,
    check_presentation,
    check_recursion,
    partition_oracle,
)
from .envelope import check_ideal_stability
from .fock import TwistedFock
from .groups import group_invariant_report
from .suites import check_brackets, check_exchange_identity, check_linear_relations, check_quadratic_relations

# suite name -> its run on (engine, principal subspace built on first call,
# verify arguments), in the default order; each check is looked up by name
# when it runs
SUITES = {
    "group": lambda fock, space, args: group_invariant_report(),
    "relations": lambda fock, space, args: check_linear_relations(fock, args.cutoff),
    "brackets": lambda fock, space, args: check_brackets(fock, args.cutoff),
    "quadratic": lambda fock, space, args: check_quadratic_relations(fock, args.cutoff),
    "exchange": lambda fock, space, args: check_exchange_identity(fock),
    "recursion": lambda fock, space, args: check_recursion(space().table()),
    "oracle": lambda fock, space, args: check_oracle(space().table()),
    "exactness": lambda fock, space, args: check_exact_sequence(fock, space(), args.exactness_cutoff),
    "presentation": lambda fock, space, args: check_presentation(fock, space().table(), args.presentation_cutoff),
    "morphisms": lambda fock, space, args: check_morphisms(fock, args.presentation_cutoff),
    "stability": lambda fock, space, args: check_ideal_stability(),
}


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _table_rows(fock: TwistedFock, cutoff: int):
    table = PrincipalSubspace(fock, cutoff).table()
    rows = []
    for (k, l), d in sorted(table.entries.items()):
        oracle = partition_oracle(k, l)
        rows.append({"charge": k, "qweight": l, "dim": d, "oracle": oracle, "match": d == oracle})
    return table, rows


def cmd_dims(args) -> int:
    fock = TwistedFock()
    table, rows = _table_rows(fock, args.cutoff)
    all_match = all(r["match"] for r in rows)
    if args.format == "json":
        _emit_json(
            {
                "tool_version": __version__,
                "config": {"cutoff": args.cutoff, "format": args.format},
                "cutoff": args.cutoff,
                "weight_shift_excluded": "1/16",
                "buckets": rows,
            }
        )
    elif args.format == "csv":
        print("charge,qweight,dim,oracle,match")
        for r in rows:
            print(
                "%d,%d,%d,%d,%s" % (r["charge"], r["qweight"], r["dim"], r["oracle"], str(r["match"]).lower())
            )
    else:
        for r in rows:
            if r["dim"] or r["oracle"]:
                print(
                    "charge %2d  qweight %3d  dim %3d  oracle %3d  %s"
                    % (r["charge"], r["qweight"], r["dim"], r["oracle"], "ok" if r["match"] else "MISMATCH")
                )
    return 0 if all_match else 1


def cmd_verify(args) -> int:
    names = args.suites.split(",") if args.suites else list(SUITES)
    for name in names:
        if name not in SUITES:
            print("unknown suite: %s (choose from %s)" % (name, ",".join(SUITES)), file=sys.stderr)
            return 2
    if len(set(names)) < len(names):
        print("each suite may be named once: %s" % args.suites, file=sys.stderr)
        return 2
    if args.presentation_cutoff > args.cutoff or args.exactness_cutoff > args.cutoff:
        print("sub-cutoffs must not exceed the global cutoff", file=sys.stderr)
        return 2
    fock = TwistedFock()
    space = functools.cache(lambda: PrincipalSubspace(fock, args.cutoff))
    reports = [SUITES[name](fock, space, args) for name in names]
    doc = {
        "tool_version": __version__,
        "config": {
            "cutoff": args.cutoff,
            "exactness_cutoff": args.exactness_cutoff,
            "presentation_cutoff": args.presentation_cutoff,
            "suites": names,
        },
        "suites": [r.as_dict() for r in reports],
    }
    if args.format == "json":
        _emit_json(doc)
    else:
        for r in reports:
            print("%-22s %s  (%d checks)" % (r.name, "pass" if r.passed else "FAIL", r.checked))
    return 0 if all(r.passed for r in reports) else 1


def cmd_oracle(args) -> int:
    print(partition_oracle(args.m, args.n))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a2twist",
        description="Exact verifier for the twisted rank-2 lattice module and its principal subspace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="graded dimension table against the partition oracle")
    p_dims.add_argument("--cutoff", type=int, default=40)
    p_dims.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_dims.set_defaults(func=cmd_dims)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suites", default="", help="comma-separated subset of: " + ",".join(SUITES))
    p_ver.add_argument("--cutoff", type=int, default=24)
    p_ver.add_argument("--exactness-cutoff", type=int, default=None)
    p_ver.add_argument("--presentation-cutoff", type=int, default=None)
    p_ver.add_argument("--format", choices=("json", "text"), default="text")
    p_ver.set_defaults(func=cmd_verify)

    p_or = sub.add_parser("oracle", help="partitions of n into m distinct odd parts")
    p_or.add_argument("--m", type=int, required=True)
    p_or.add_argument("--n", type=int, required=True)
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.exactness_cutoff is None:
            args.exactness_cutoff = min(args.cutoff, 24)
        if args.presentation_cutoff is None:
            args.presentation_cutoff = min(args.cutoff, 12)
    if getattr(args, "cutoff", 0) < 0:
        parser.error("cutoff must be nonnegative")
    if args.command == "verify" and min(args.exactness_cutoff, args.presentation_cutoff) < 0:
        parser.error("sub-cutoffs must be nonnegative")
    # usage errors are rejected before any work, so whatever is raised here is internal
    try:
        return args.func(args)
    except Exception as exc:
        print("a2twist: internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
