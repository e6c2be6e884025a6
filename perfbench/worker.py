"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME [--trace-out FILE]
    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --kernels
    python3 perfbench/worker.py --call "dims --cutoff 40 --format json"

Imports a2twist from the checkout's src/ and times the set-up (importing
the package's CLI and constructing TwistedFock), then runs each of the
workload's command lines through a2twist.cli.main with stdout captured.
With --trace-out, layer wrappers are installed after set-up and the spans
are written to FILE.  --call times one ad hoc command line the same way
(for the reference figures in README.md).  Prints one JSON object as its
last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child, so memory moved into worker processes still counts."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def setup() -> float:
    t0 = time.perf_counter()
    import a2twist.cli  # noqa: F401
    from a2twist import TwistedFock

    TwistedFock()
    return time.perf_counter() - t0


def run_calls(argvs, tracer=None):
    from a2twist.cli import main

    calls = []
    entry = main if tracer is None else tracer.span("cli.main", main)
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.call = i
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = entry(list(argv))
            except SystemExit as exc:
                code = exc.code
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_call()
        calls.append({"argv": argv, "code": code, "wall_s": wall, "stdout": buf.getvalue()})
    return calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--kernels", action="store_true")
    mode.add_argument("--call", help="one a2twist command line, words split on whitespace")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "a2twist", "__init__.py")):
        print("perfbench: no a2twist sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    out = {"setup_s": setup()}
    if args.kernels:
        import kernels

        out["kernels"] = kernels.measure()
    elif args.call:
        (call,) = run_calls([args.call.split()])
        out.update(code=call["code"], wall_s=call["wall_s"], peak_rss_mb=peak_rss_mb())
    elif args.workload:
        from workloads import WORKLOADS

        tracer = None
        if args.trace_out:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install_layers()
        out["calls"] = run_calls(WORKLOADS[args.workload], tracer)
        out["wall_s"] = sum(c["wall_s"] for c in out["calls"])
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layer_metrics()
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
