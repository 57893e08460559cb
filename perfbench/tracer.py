"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps qcong's public functions from outside the package: every
name under which a qcong module can look a function up is rebound to a
wrapper that records a span (layer, parent span, start, end).  Wrappers sit
outside the ``lru_cache`` of the cached builders, so caching behaves as it
does untraced; cache hits are read from ``cache_info()`` deltas.

Spans stay in memory.  When the run ends, ``report`` turns them into
per-layer self times: a span's duration minus the part of it that its child
spans cover.  The time the tracer spends on its own bookkeeping (the
operation counts below) is recorded as spans of the layer ``trace``, so the
self times of all layers plus the uncovered remainder add up to the traced
wall time.

``series.mul.ops`` and ``series.divide.ops`` are multiply-add counts of the
sparse schoolbook kernels, computed from the operands' nonzero positions,
not measured.  They repeat exactly for the same inputs.
"""

from __future__ import annotations

import json
import sys
import time
from bisect import bisect_left
from collections import Counter, defaultdict

#: layer -> (module, attribute) pairs wrapped for it; "Class.method" names a
#: method patched on the class.
LAYERS = {
    "series.mul": [("qcong.series", "LaurentSeries.mul")],
    "series.divide": [("qcong.series", "LaurentSeries.divide"),
                      ("qcong.series", "LaurentSeries.invert")],
    "series.construct": [("qcong.series", "LaurentSeries.__init__")],
    "series.dissect": [("qcong.series", "LaurentSeries.dissect")],
    "series.compare": [("qcong.series", "LaurentSeries.first_mismatch")],
    "series.other": [("qcong.series", f"LaurentSeries.{m}")
                     for m in ("add", "neg", "sub", "scale", "pow", "shift",
                               "substitute", "truncate", "normalize",
                               "reduce_mod")],
    "products.euler_f": [("qcong.products", "euler_f")],
    "products.fquotient": [("qcong.products", "fquotient")],
    "products.bilateral": [("qcong.products", "bilateral")],
    "products.cubic_theta_alpha": [("qcong.products", "cubic_theta_alpha")],
    "products.h_level12": [("qcong.products", "h_level12")],
    "expr.evaluate": [("qcong.expr", "evaluate")],
    "identities.verify": [("qcong.identities", "verify")],
    "theorems.b_table": [("qcong.theorems", "b_table")],
    "theorems.verify_weighted": [("qcong.theorems", "verify_weighted")],
    "theorems.verify_simple": [("qcong.theorems", "verify_simple")],
    "theorems.scan": [("qcong.theorems", "scan")],
    "partitions.count_triples": [("qcong.partitions", "count_triples")],
    "cli.main": [("qcong.cli", "main")],
}

#: layer -> (module, lru_cache'd function behind it)
CACHES = {
    "products.euler_f": ("qcong.products", "euler_f"),
    "products.fquotient": ("qcong.products", "_expand_factors"),
}

#: per-layer metrics reported by a traced run: name -> (unit, better)
PER_LAYER = {
    "series.mul.calls": ("count", "lower"),
    "series.mul.self_s": ("s", "lower"),
    "series.mul.ops": ("count", "lower"),
    "series.divide.calls": ("count", "lower"),
    "series.divide.self_s": ("s", "lower"),
    "series.divide.ops": ("count", "lower"),
    "series.construct.calls": ("count", "lower"),
    "series.construct.self_s": ("s", "lower"),
    "series.dissect.self_s": ("s", "lower"),
    "series.compare.self_s": ("s", "lower"),
    "series.other.self_s": ("s", "lower"),
    "products.euler_f.calls": ("count", "lower"),
    "products.euler_f.self_s": ("s", "lower"),
    "products.euler_f.hit_ratio": ("ratio", "higher"),
    "products.fquotient.calls": ("count", "lower"),
    "products.fquotient.self_s": ("s", "lower"),
    "products.fquotient.hit_ratio": ("ratio", "higher"),
    "products.fquotient.evictions": ("count", "lower"),
    "products.bilateral.calls": ("count", "lower"),
    "products.bilateral.self_s": ("s", "lower"),
    "products.cubic_theta_alpha.self_s": ("s", "lower"),
    "products.h_level12.self_s": ("s", "lower"),
    "expr.evaluate.calls": ("count", "lower"),
    "expr.evaluate.self_s": ("s", "lower"),
    "identities.verify.calls": ("count", "lower"),
    "identities.verify.self_s": ("s", "lower"),
    "theorems.b_table.calls": ("count", "lower"),
    "theorems.b_table.self_s": ("s", "lower"),
    "theorems.b_table.max_n": ("n", "lower"),
    "theorems.verify_weighted.sums": ("count", "higher"),
    "theorems.verify_weighted.self_s": ("s", "lower"),
    "theorems.verify_simple.self_s": ("s", "lower"),
    "theorems.scan.self_s": ("s", "lower"),
    "partitions.count_triples.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.self_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def _nonzero(cs, n):
    return [i for i, c in enumerate(cs[:n]) if c]


def mul_ops(a, b):
    """Multiply-adds of ``_convolve`` for a.mul(b): pairs of nonzero
    positions (i, j) with i + j below the common window length."""
    n = min(len(a), len(b))
    an, bn = _nonzero(a, n), _nonzero(b, n)
    if len(bn) < len(an):
        an, bn = bn, an
    return sum(bisect_left(bn, n - i) for i in an)


def divide_ops(nu, d):
    """Multiply-adds of ``_divide_block`` for u / d with len(u) = nu: each
    output position k pays one per nonzero d_j with 1 <= j <= k (leading
    zeros of d stripped, as ``normalize`` does)."""
    lead = next((i for i, c in enumerate(d) if c), len(d) - 1)
    d = d[lead:]
    n = min(nu, len(d))
    return sum(n - j for j in _nonzero(d, n) if j)


def _covered(intervals, lo, hi):
    """Length of the part of [lo, hi] covered by the union of intervals."""
    total = 0.0
    cur = lo
    for s, e in sorted(intervals):
        s = max(s, cur)
        e = min(e, hi)
        if e > s:
            total += e - s
            cur = e
    return total


def self_times(spans, start, end):
    """Self time per layer from spans [layer, parent index, start, end]
    (parent -1 for a root), and the part of [start, end] no root covers."""
    children = defaultdict(list)
    for layer, parent, s, e in spans:
        children[parent].append((s, e))
    out = defaultdict(float)
    for sid, (layer, _, s, e) in enumerate(spans):
        out[layer] += (e - s) - _covered(children.get(sid, ()), s, e)
    return dict(out), (end - start) - _covered(children.get(-1, ()), start, end)


class Tracer:
    """Wraps the layers of an imported qcong and records spans and counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]
        self._caches = {}

    def _span(self, layer, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [layer, stack[-1], clock(), 0.0]
            spans.append(rec)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                book = ["trace", stack[-1], clock(), 0.0]
                spans.append(book)
                after(args, out)
                book[3] = clock()
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_mul(self, args, out):
        a, b = args[0], args[1]
        if hasattr(b, "coeffs"):
            self.counts["series.mul.ops"] += mul_ops(a.coeffs, b.coeffs)

    def _count_divide(self, args, out):
        # invert(a) divides 1 over the whole window of a
        u, d = (args[0], args[0]) if len(args) == 1 else args[:2]
        if hasattr(d, "coeffs"):
            self.counts["series.divide.ops"] += divide_ops(len(u.coeffs), d.coeffs)

    def _count_b_table(self, args, out):
        key = "theorems.b_table.max_n"
        self.counts[key] = max(self.counts[key], args[0])

    def _count_sums(self, args, out):
        self.counts["theorems.verify_weighted.sums"] += out.checked

    def install(self):
        """Rebind every qcong name of every layer to its wrapper."""
        after = {"series.mul": self._count_mul, "series.divide": self._count_divide,
                 "theorems.b_table": self._count_b_table,
                 "theorems.verify_weighted": self._count_sums}
        modules = [m for name, m in sys.modules.items()
                   if name == "qcong" or name.startswith("qcong.")]
        for layer, (mod, attr) in CACHES.items():
            fn = getattr(sys.modules[mod], attr)
            self._caches[layer] = (fn, fn.cache_info())
        for layer, targets in LAYERS.items():
            for mod, attr in targets:
                owner = sys.modules[mod]
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                    fn = owner.__dict__[attr]
                    setattr(owner, attr, self._span(layer, fn, after.get(layer)))
                    continue
                fn = getattr(owner, attr)
                wrapper = self._span(layer, fn, after.get(layer))
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapper)

    def write(self, path, origin):
        """Write the spans as JSON, times in seconds from ``origin``."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "parent", "start_s", "end_s"],
                       "spans": [[layer, parent, s - origin, e - origin]
                                 for layer, parent, s, e in self.spans]}, fh)

    def report(self, start, end):
        """Per-layer metrics for the traced interval [start, end]."""
        selfs, uncovered = self_times(self.spans, start, end)
        calls = Counter(layer for layer, _, _, _ in self.spans)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        out.update(self.counts)
        for layer, (fn, before) in self._caches.items():
            info = fn.cache_info()
            hits, misses = info.hits - before.hits, info.misses - before.misses
            out[f"{layer}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            out[f"{layer}.evictions"] = max(0, misses - (info.currsize - before.currsize))
        out["trace.self_s"] = selfs.get("trace", 0.0)
        out["trace.uncovered_s"] = uncovered
        out["trace.wall_s"] = end - start
        return {k: out.get(k, 0) for k in PER_LAYER if k != "trace_overhead"}
