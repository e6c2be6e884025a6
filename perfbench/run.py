"""a2twist benchmark.

    python3 perfbench/run.py --workload dims --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-floors

Run from the root of a checkout.  Each round runs the workload's command
lines in a fresh interpreter (perfbench/worker.py) through a2twist.cli.main;
rounds repeat until --seconds have passed, and every round's output is
checked against values computed here, apart from the program.  The last
stdout line is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1 (where each round is an untraced run followed by a
traced one, so the tracing overhead is measured too).

--write-floors runs every verify workload once and stores each suite's
check count in perfbench/floors.json, the floor later runs must reach.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
FLOORS = os.path.join(HERE, "floors.json")
sys.path.insert(0, HERE)

from checks import (  # noqa: E402
    CheckFailed,
    check_dims,
    check_distinct_mode_finding,
    check_morphism_constants,
    check_suites,
)
from tracing import SUITE_FUNCTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up-only interpreters per run, half before the rounds and half after:
# a 50 ms set-up swings by a third between consecutive interpreters on a
# shared host
SETUP_SAMPLES = 16
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "fock.images": "count",
    "fock.image_s": "s",
    "fock.apply_s": "s",
    "fock.image_requests": "count",
    "fock.image_hit_ratio": "ratio",
    "fock.cache_entries": "count",
    "scalar.inserts": "count",
    "scalar.insert_accept_ratio": "ratio",
    "scalar.echelon_s": "s",
    "scalar.max_coeff_bits": "bits",
    "envelope.normal_order_calls": "count",
    "envelope.normal_order_s": "s",
    "envelope.span_s": "s",
    "envelope.evaluate_s": "s",
    "analyzer.table_s": "s",
    "analyzer.candidates": "count",
}
for _suite in SUITE_FUNCTIONS:
    PER_LAYER["suite.%s.s" % _suite] = "s"
    PER_LAYER["suite.%s.checks" % _suite] = "count"
PER_LAYER["suite.quadratic.skipped"] = "count"
for _kernel in ("qi_muladd", "vertex_raw", "echelon_insert", "accumulate_raw"):
    PER_LAYER["kernel.%s_us" % _kernel] = "us"
PER_LAYER["trace.overhead_s"] = "s"


class WorkerFailed(Exception):
    pass


def worker(args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker %s ran past the run's deadline" % " ".join(args))
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("worker %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def load_floors() -> dict:
    with open(FLOORS) as fh:
        return json.load(fh)


def check_round(result: dict, floors: dict):
    """Check one round's outputs; returns (operations attempted, operations
    failed, {CLI suite name: checks})."""
    attempted = skipped = 0
    checks = {}
    for call in result["calls"]:
        if call["code"] != 0:
            raise CheckFailed("%s exited with %r" % (" ".join(call["argv"]), call["code"]))
        doc = json.loads(call["stdout"])
        argv = call["argv"]
        if argv[0] == "dims":
            attempted += check_dims(doc, int(argv[argv.index("--cutoff") + 1]))
            continue
        counted = check_suites(doc, floors)
        reports = {s["name"]: s for s in doc["suites"]}
        for cli_name, report in zip(doc["config"]["suites"], doc["suites"]):
            checks[cli_name] = checks.get(cli_name, 0) + report["checked"]
        if "presentation" in reports:
            check_distinct_mode_finding(reports["presentation"])
        if "shift-morphisms" in reports:
            check_morphism_constants(reports["shift-morphisms"])
        # Known fault kept in the workload: the quadratic suite passes while
        # skipping every sum whose window needs a bucket above its
        # intermediate bound.  Each skipped sum is a failed operation.
        if "quadratic-relations" in reports:
            skipped += reports["quadratic-relations"]["details"]["skipped_vector_sums"]
        attempted += sum(counted.values())
    return attempted + skipped, skipped, checks


def run(args) -> int:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "a2twist", "__init__.py")):
        print("perfbench: run from a checkout of a2twist (no src/a2twist here)", file=sys.stderr)
        return 2
    floors = load_floors()
    os.makedirs(OUT, exist_ok=True)
    worker(["--setup-only"], deadline)  # compiles bytecode; not timed

    def sample_setup(n):
        return [worker(["--setup-only"], deadline)["setup_s"] for _ in range(n)]

    setups = sample_setup(SETUP_SAMPLES // 2)
    plain, traced = [], []
    trace_file = os.path.join(OUT, "trace-%s.json.gz" % args.workload)
    while True:
        plain.append(worker(["--workload", args.workload], deadline))
        if args.trace:
            traced.append(worker(["--workload", args.workload, "--trace-out", trace_file], deadline))
        if time.monotonic() - started >= args.seconds:
            break
    setups += sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    kernels = worker(["--kernels"], deadline)["kernels"] if args.trace else {}

    attempted = failed = 0
    correct = True
    suite_checks, skipped = {}, 0
    try:
        for r in plain + traced:
            a, skipped, suite_checks = check_round(r, floors)
            attempted += a
            failed += skipped
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:  # malformed output fails too
        print("perfbench: check failed: %r" % exc, file=sys.stderr)
        correct = False

    med = statistics.median
    if args.trace:
        values = {}
        for name in PER_LAYER:
            if name.startswith("suite.") and name.endswith(".checks"):
                values[name] = suite_checks.get(name.split(".")[1], 0)
            elif name in kernels:
                values[name] = kernels[name]
            else:
                samples = [r["layers"][name] for r in traced if name in r["layers"]]
                if samples:
                    values[name] = med(samples)
        values["suite.quadratic.skipped"] = skipped
        values["trace.overhead_s"] = med(r["wall_s"] for r in traced) - med(r["wall_s"] for r in plain)
        metrics = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in values.items()}
    else:
        values = {
            "setup_s": med(setups + [r["setup_s"] for r in plain]),
            "wall_s": med(r["wall_s"] for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(OUT, "result-%s-trace%d.json" % (args.workload, args.trace)), "w") as fh:
        fh.write(line + "\n")
    print(
        "perfbench: %s seed %d: %d untraced and %d traced rounds in %.1f s"
        % (args.workload, args.seed, len(plain), len(traced), time.monotonic() - started),
        file=sys.stderr,
    )
    print(line)
    return 0 if correct else 1


def write_floors() -> int:
    floors = {}
    deadline = time.monotonic() + 3600
    for name, argvs in WORKLOADS.items():
        if any(argv[0] == "verify" for argv in argvs):
            for call in worker(["--workload", name], deadline)["calls"]:
                for report in json.loads(call["stdout"])["suites"]:
                    floors[report["name"]] = report["checked"]
    with open(FLOORS, "w") as fh:
        json.dump(floors, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(floors, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-floors", action="store_true")
    args = parser.parse_args()
    if args.write_floors:
        return write_floors()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args)
    except WorkerFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
