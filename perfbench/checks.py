"""Output checks computed apart from the program.

Nothing here imports a2twist: every expected value is derived from the
generating function prod_{j odd} (1 + y x^j), from the two-term recursion,
or from closed forms, so a fault in the verifier cannot hide itself by
agreeing with its own oracle.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple


class CheckFailed(Exception):
    """An output of the program does not hold up."""


def distinct_odd_counts(max_weight: int) -> List[List[int]]:
    """counts[k][l] is the coefficient of y^k x^l in prod_{j odd} (1 + y x^j),
    for 0 <= k, l <= max_weight: the number of partitions of l into k
    distinct odd parts."""
    n = max_weight
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    counts[0][0] = 1
    for j in range(1, n + 1, 2):
        # multiply by (1 + y x^j); descending k keeps each part used once
        for k in range(n, 0, -1):
            row, prev = counts[k], counts[k - 1]
            for l in range(n, j - 1, -1):
                row[l] += prev[l - j]
    return counts


def check_dims(doc: dict, cutoff: int) -> int:
    """Every (charge, qweight) row up to the cutoff is present, each dim is
    the generating-function count, and the rows satisfy
    dim(k, l) = dim(k, l - 2k) + dim(k - 1, l - 2k + 1).  Returns the number
    of rows checked."""
    rows = doc.get("buckets")
    if not isinstance(rows, list):
        raise CheckFailed("dims: no bucket rows")
    dims: Dict[Tuple[int, int], int] = {}
    for r in rows:
        key = (r["charge"], r["qweight"])
        if key in dims:
            raise CheckFailed("dims: row %s repeated" % (key,))
        dims[key] = r["dim"]
    want = {(k, l) for l in range(cutoff + 1) for k in range(l + 1)}
    if set(dims) != want:
        missing = sorted(want - set(dims))[:5]
        extra = sorted(set(dims) - want)[:5]
        raise CheckFailed("dims: rows missing %s, unexpected %s" % (missing, extra))
    counts = distinct_odd_counts(cutoff)
    for (k, l), d in sorted(dims.items()):
        if d != counts[k][l]:
            raise CheckFailed("dims: dim(%d, %d) = %d, generating function gives %d" % (k, l, d, counts[k][l]))

    def dim(k: int, l: int) -> int:
        return dims.get((k, l), 0) if k >= 0 and l >= 0 else 0

    for (k, l), d in sorted(dims.items()):
        want_d = (1 if l == 0 else 0) if k == 0 else dim(k, l - 2 * k) + dim(k - 1, l - 2 * k + 1)
        if d != want_d:
            raise CheckFailed("dims: recursion fails at (%d, %d): %d != %d" % (k, l, d, want_d))
    return len(dims)


def check_suites(doc: dict, floors: Dict[str, int]) -> Dict[str, int]:
    """Every suite passes, has checked > 0, and checked at least its stored
    floor.  Returns {suite name: checked}."""
    suites = doc.get("suites")
    if not isinstance(suites, list) or not suites:
        raise CheckFailed("verify: no suites in the output")
    out = {}
    for s in suites:
        name, checked = s["name"], s["checked"]
        if s["pass"] is not True:
            raise CheckFailed("suite %s reports a failure" % name)
        if checked <= 0:
            raise CheckFailed("suite %s passed with %d checks" % (name, checked))
        floor = floors.get(name)
        if floor is None:
            raise CheckFailed("suite %s has no stored floor" % name)
        if checked < floor:
            raise CheckFailed("suite %s ran %d checks, below the floor %d" % (name, checked, floor))
        out[name] = checked
    return out


_BUCKET = re.compile(r"^\((-?\d+), (-?\d+)\)$")


def check_distinct_mode_finding(report: dict) -> int:
    """Per bucket of the presentation's distinct-mode finding: the word count
    is the generating-function count, and the words are independent and
    spanning.  Returns the number of buckets checked."""
    finding = report.get("details", {}).get("distinct_mode_basis_finding")
    if not finding:
        raise CheckFailed("presentation: no distinct_mode_basis_finding")
    buckets = {}
    for key in finding:
        m = _BUCKET.match(key)
        if not m or not 0 <= int(m.group(1)) <= int(m.group(2)):
            raise CheckFailed("presentation: bad bucket key %r" % key)
        buckets[key] = (int(m.group(1)), int(m.group(2)))
    counts = distinct_odd_counts(max(l for _, l in buckets.values()))
    for key, (k, l) in buckets.items():
        entry = finding[key]
        want = counts[k][l]
        if entry["distinct_mode_words"] != want:
            raise CheckFailed(
                "presentation: %s has %d distinct-mode words, generating function gives %d"
                % (key, entry["distinct_mode_words"], want)
            )
        if entry["independent"] is not True or entry["spanning"] is not True:
            raise CheckFailed("presentation: distinct-mode words at %s not an independent spanning set" % key)
    return len(buckets)


_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^k as (re, im)


def check_morphism_constants(report: dict) -> int:
    """constants_by_charge[k] = (2 + 2i)(-i)^k for every charge, and no
    single charge-independent constant exists.  Returns the number of
    charges checked."""
    details = report.get("details", {})
    constants = details.get("constants_by_charge")
    if not constants:
        raise CheckFailed("shift-morphisms: no constants_by_charge")
    for key, value in constants.items():
        k = int(key)
        a, b = _MINUS_I_POWERS[k % 4]
        re_, im_ = 2 * a - 2 * b, 2 * b + 2 * a  # (2 + 2i)(a + bi)
        if value != {"re": str(re_), "im": str(im_)}:
            raise CheckFailed("shift-morphisms: constant at charge %d is %s, want %d%+di" % (k, value, re_, im_))
    if details.get("single_global_constant_exists") is not False:
        raise CheckFailed("shift-morphisms: single_global_constant_exists is not false")
    return len(constants)
