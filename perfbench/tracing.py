"""Layer tracing installed from outside the program.

Wrappers are put around the calls into each layer of a2twist at run time;
the program's own files are not touched.  Each wrapper records a span
(name, start, end, parent span, CLI call) in flat arrays kept in memory,
and counts at the same boundary.  A layer's self time is its span's
duration minus the time its child spans cover, each child's wrapper
bookkeeping included, so tracing cost is charged to no layer.  Untraced
runs import nothing from here.

A hook whose target a later change removed or reshaped is reported with a
warning on stderr, and every metric that needs it goes unreported; the run
itself goes on.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

# CLI suite name -> the check function `a2twist.cli` calls for it
SUITE_FUNCTIONS = {
    "relations": "check_linear_relations",
    "brackets": "check_brackets",
    "quadratic": "check_quadratic_relations",
    "exchange": "check_exchange_identity",
    "presentation": "check_presentation",
    "morphisms": "check_morphisms",
    "stability": "check_ideal_stability",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def coeff_bits(x) -> int:
    """Largest bit length among the integer parts of an exact scalar: an int,
    a fraction's numerator and denominator, or the components of a
    Gaussian rational."""
    if isinstance(x, int):
        return x.bit_length()
    if hasattr(x, "re") and hasattr(x, "im"):
        return max(coeff_bits(x.re), coeff_bits(x.im))
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self.calls: List[int] = []
        self.counts: Dict[str, int] = {}
        self.call = -1  # index of the CLI call in progress
        self._stack: List[list] = []
        self._installed: List[tuple] = []
        self.dead_hooks: set = set()
        self.fock_instances: List[object] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return nid

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _hook_failed(self, hook: str, exc: BaseException) -> None:
        if hook not in self.dead_hooks:
            self.dead_hooks.add(hook)
            print("perfbench: hook %s stopped counting: %r" % (hook, exc), file=sys.stderr)

    def span(self, name: str, fn: Callable) -> Callable:
        """fn wrapped in a span called name, for calls made by the benchmark
        itself (one CLI call, for instance)."""
        return self._wrap(fn, name, name, None, None)

    def _wrap(self, fn, span: Optional[str], hook: str, before, after) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def run_hook(h, *a):
            if hook in tracer.dead_hooks:
                return
            try:
                h(*a)
            except Exception as exc:  # a reshaped target must not fail the run
                tracer._hook_failed(hook, exc)

        if span is None:
            def counted(*args, **kwargs):
                if before is not None:
                    run_hook(before, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    run_hook(after, args, kwargs, result)
                return result

            return counted

        nid = self._name_id(span)
        names, parents, calls = self.span_name, self.span_parent, self.span_call
        starts, ends = self.span_start, self.span_end
        self_s, total_s, ncalls = self.self_s, self.total_s, self.calls

        def wrapper(*args, **kwargs):
            t_in = clock()
            if before is not None:
                run_hook(before, args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            calls.append(tracer.call)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                self_s[nid] += (t1 - t0) - frame[1]
                total_s[nid] += t1 - t0
                ncalls[nid] += 1
            if after is not None:
                run_hook(after, args, kwargs, result)
            if stack:
                stack[-1][1] += clock() - t_in
            return result

        return wrapper

    def hook(self, module: str, path: str, span: Optional[str], before=None, after=None) -> None:
        """Wrap module.path (a function, or Class.method) in place."""
        key = "%s.%s" % (module, path)
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.dead_hooks.add(key)
            print("perfbench: cannot hook %s (%s); its metrics go unreported" % (key, exc), file=sys.stderr)
            return
        self._installed.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, self._wrap(fn, span, key, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    def install_layers(self) -> None:
        add = self.add

        def vec_requests(args, kwargs):
            add("image_requests", len(_arg(args, kwargs, 3, "vec").terms))

        def batch_requests(args, kwargs):
            add("image_requests", sum(len(v.terms) for v in _arg(args, kwargs, 3, "vectors")))

        def matrix_requests(args, kwargs, result):
            add("image_requests", result.cols)

        def insert_before(args, kwargs):
            vec = _arg(args, kwargs, 1, "vec")
            add("inserts", 1)
            bits = max((coeff_bits(v) for v in vec.values()), default=0)
            if bits > self.counts.get("max_coeff_bits", 0):
                self.counts["max_coeff_bits"] = bits

        def insert_after(args, kwargs, result):
            add("inserts_kept", 1 if result else 0)

        def candidates_after(args, kwargs, result):
            add("candidates", len(result))

        def fock_created(args, kwargs, result):
            self.fock_instances.append(args[0])

        f, s, e, a = "a2twist.fock", "a2twist.scalar", "a2twist.envelope", "a2twist.analyzer"
        self.hook(f, "TwistedFock.__init__", None, after=fock_created)
        self.hook(f, "TwistedFock._image_raw", "fock.image")
        self.hook(f, "TwistedFock.apply", "fock.apply", before=vec_requests)
        self.hook(f, "TwistedFock.apply_batch", "fock.apply", before=batch_requests)
        self.hook(f, "TwistedFock.matrix", "fock.apply", after=matrix_requests)
        self.hook(f, "_LocalApplier.apply", "fock.apply", before=vec_requests)
        self.hook(s, "EchelonBasis.insert", "scalar.echelon", before=insert_before, after=insert_after)
        self.hook(s, "EchelonBasis.contains", "scalar.echelon")
        self.hook(e, "EnvElement._accumulate_raw", "envelope.normal_order")
        self.hook(e, "IdealSlice.bucket_span", "envelope.span")
        self.hook(e, "EnvElement.evaluate", "envelope.evaluate")
        self.hook(a, "PrincipalSubspace.__init__", "analyzer.table")
        self.hook(a, "PrincipalSubspace._candidates", None, after=candidates_after)
        for suite, fn in SUITE_FUNCTIONS.items():
            self.hook("a2twist.cli", fn, "suite." + suite)

    def end_call(self) -> None:
        """Close one CLI call: note the entries its TwistedFock objects hold
        in their per-monomial and per-matrix caches, keeping the largest
        over calls, and let those objects go."""
        hook = "a2twist.fock.TwistedFock.__init__"
        try:
            entries = sum(len(f._mono_cache) + len(f._matrix_cache) for f in self.fock_instances)
        except AttributeError as exc:
            self._hook_failed(hook, exc)
        else:
            self.counts["cache_entries"] = max(self.counts.get("cache_entries", 0), entries)
        self.fock_instances.clear()

    def _seconds(self, span: str, self_time: bool = True) -> float:
        nid = self._ids.get(span)
        if nid is None:
            return 0.0
        return self.self_s[nid] if self_time else self.total_s[nid]

    def _ncalls(self, span: str) -> int:
        nid = self._ids.get(span)
        return 0 if nid is None else self.calls[nid]

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures of everything traced so far, keyed by metric
        name; metrics whose hooks are dead are left out."""
        f, s, e, a = "a2twist.fock.", "a2twist.scalar.", "a2twist.envelope.", "a2twist.analyzer."
        apply_hooks = [f + "TwistedFock.apply", f + "TwistedFock.apply_batch", f + "TwistedFock.matrix", f + "_LocalApplier.apply"]
        image_hook = f + "TwistedFock._image_raw"
        insert_hook = s + "EchelonBasis.insert"
        c = self.counts
        images = self._ncalls("fock.image")
        requests = c.get("image_requests", 0)
        inserts = c.get("inserts", 0)
        table = [
            ("fock.images", [image_hook], images),
            ("fock.image_s", [image_hook], self._seconds("fock.image")),
            ("fock.apply_s", apply_hooks, self._seconds("fock.apply")),
            ("fock.image_requests", apply_hooks, requests),
            ("fock.image_hit_ratio", apply_hooks + [image_hook], 1 - images / requests if requests else 0.0),
            ("fock.cache_entries", [f + "TwistedFock.__init__"], c.get("cache_entries", 0)),
            ("scalar.inserts", [insert_hook], inserts),
            ("scalar.insert_accept_ratio", [insert_hook], c.get("inserts_kept", 0) / inserts if inserts else 0.0),
            ("scalar.echelon_s", [insert_hook, s + "EchelonBasis.contains"], self._seconds("scalar.echelon")),
            ("scalar.max_coeff_bits", [insert_hook], c.get("max_coeff_bits", 0)),
            ("envelope.normal_order_calls", [e + "EnvElement._accumulate_raw"], self._ncalls("envelope.normal_order")),
            ("envelope.normal_order_s", [e + "EnvElement._accumulate_raw"], self._seconds("envelope.normal_order")),
            ("envelope.span_s", [e + "IdealSlice.bucket_span"], self._seconds("envelope.span")),
            ("envelope.evaluate_s", [e + "EnvElement.evaluate"], self._seconds("envelope.evaluate")),
            # the table build orchestrates fock and scalar work: whole span, like a suite
            ("analyzer.table_s", [a + "PrincipalSubspace.__init__"], self._seconds("analyzer.table", False)),
            ("analyzer.candidates", [a + "PrincipalSubspace._candidates"], c.get("candidates", 0)),
        ]
        for suite, fn in SUITE_FUNCTIONS.items():
            table.append(("suite.%s.s" % suite, ["a2twist.cli." + fn], self._seconds("suite." + suite, False)))
        out = {}
        for name, hooks, value in table:
            if self.dead_hooks.intersection(hooks):
                print("perfbench: %s unreported, a hook it needs is missing" % name, file=sys.stderr)
            else:
                out[name] = value
        return out

    def write(self, path: str) -> None:
        """Write every span, times in microseconds from the first span."""
        t0 = min(self.span_start) if self.span_start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "call": self.span_call.tolist(),
            "start_us": [round((t - t0) * 1e6) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6) for t in self.span_end],
        }
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))
