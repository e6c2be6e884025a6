"""Microbenchmarks of the four hot kernels, on fixed operands taken from the
workloads (see README.md).  Each kernel runs once to warm caches, then in
BATCHES timed batches; the figure is the median over batches of the time
per call in microseconds.  A kernel whose entry point a later change
removed is left out with a warning.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Dict

BATCHES = 5

# dims builds bucket (2, 24) from bucket (1, 21) through this operator
VERTEX_OP = ("a1", -3)
VERTEX_BUCKET = (1, 21)
# a dims bucket whose candidates come from the table up to TABLE_CUTOFF
ECHELON_BUCKET = (3, 21)
TABLE_CUTOFF = 20
# a u word of the presentation workload's shape: annihilators left of
# creators, so straightening walks the whole bracket tree
PBW_WORD = (5, 3, 1, -1, -3, -5, -7)
MULADD_CALLS = 2000
PBW_CALLS = 200


def _per_call_us(run: Callable[[], None], calls: int) -> float:
    run()
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        run()
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


def measure() -> Dict[str, float]:
    from a2twist.analyzer import PrincipalSubspace
    from a2twist.envelope import EnvElement
    from a2twist.fock import TwistedFock, enumerate_bucket
    from a2twist.scalar import ONE, EchelonBasis

    try:
        fock = TwistedFock()
        candidates = [v.terms for v in PrincipalSubspace(fock, TABLE_CUTOFF)._candidates(*ECHELON_BUCKET)]
        # Q(i) operands: the three bulkiest coefficients of those candidates
        coeffs = sorted(
            (c for terms in candidates for c in terms.values()),
            key=lambda c: (len(repr(c)), repr(c)),
        )
        a, b, c = coeffs[-3:]
        monos = enumerate_bucket(*VERTEX_BUCKET)
    except (AttributeError, TypeError, ValueError) as exc:
        print("perfbench: kernel operands unavailable, kernels unreported: %r" % exc, file=sys.stderr)
        return {}

    def muladd():
        for _ in range(MULADD_CALLS):
            a - b * c

    def vertex():
        for mono in monos:
            fock._vertex_raw(VERTEX_OP[0], VERTEX_OP[1], mono)

    def echelon():
        basis = EchelonBasis()
        for terms in candidates:
            basis.insert(terms)

    def pbw():
        for _ in range(PBW_CALLS):
            EnvElement()._accumulate_raw((), PBW_WORD, ONE)

    kernels = {
        "kernel.qi_muladd_us": (muladd, MULADD_CALLS),
        "kernel.vertex_raw_us": (vertex, len(monos)),
        "kernel.echelon_insert_us": (echelon, len(candidates)),
        "kernel.accumulate_raw_us": (pbw, PBW_CALLS),
    }
    out = {}
    for name, (run, calls) in kernels.items():
        try:
            out[name] = _per_call_us(run, calls)
        except (AttributeError, TypeError) as exc:
            print("perfbench: %s unreported: %r" % (name, exc), file=sys.stderr)
    return out
