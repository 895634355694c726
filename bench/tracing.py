"""The traced run: per-layer spans and counters around gridlab's public
functions, recorded from the benchmark's own files.

`Tracer.install` replaces each listed function by a wrapper at every
gridlab module attribute bound to it (so `gridlab.gridcheck.build_graph`,
`gridlab.cli.build_graph` and `gridlab.build_graph` all record), and
methods on their class.  A span is (name, start, end, parent, job); spans
stay in memory and are written out when the run ends.  A layer's self time
is its spans' duration minus the time covered by their child spans.

`PER_LAYER` lists every per-layer metric with its unit; README.md maps each
to the end-to-end metric it should move.
"""

from __future__ import annotations

import functools
import json
import operator
import random
import statistics
from collections import Counter
from fractions import Fraction
from math import comb
from time import perf_counter

# (metric, unit, better); README.md maps each to the end-to-end metric it should move
PER_LAYER = (
    ("cli.startup_s", "s", "lower"),
    ("fields.mul_ns.qq", "ns", "lower"),
    ("fields.mul_ns.fp", "ns", "lower"),
    ("fields.mul_ns.fq", "ns", "lower"),
    ("fields.inv_ns.fq", "ns", "lower"),
    ("poly.gcd.self_s", "s", "lower"),
    ("poly.gcd.calls", "count", "lower"),
    ("poly.exact_div.self_s", "s", "lower"),
    ("poly.squarefree.self_s", "s", "lower"),
    ("poly.substitute.self_s", "s", "lower"),
    ("hypersurfaces.construct.self_s", "s", "lower"),
    ("hypersurfaces.reduce_mod.self_s", "s", "lower"),
    ("hypersurfaces.contains.calls", "count", "lower"),
    ("gridcheck.build_graph.self_s", "s", "lower"),
    ("gridcheck.find_grid.self_s", "s", "lower"),
    ("gridcheck.max_common.self_s", "s", "lower"),
    ("gridcheck.edge_report.self_s", "s", "lower"),
    ("gridcheck.vertices", "count", "lower"),
    ("gridcheck.edges", "count", "lower"),
    ("gridcheck.scan_subsets", "count", "lower"),
    ("gridcheck.budget_refusals", "count", "lower"),
    ("gridcheck.refused_build_s", "s", "lower"),
    ("classify_s1.classify.self_s", "s", "lower"),
    ("classify_s1.reduce.self_s", "s", "lower"),
    ("classify_s1.max_row.self_s", "s", "lower"),
    ("curves.imult.self_s", "s", "lower"),
    ("curves.rank_test.self_s", "s", "lower"),
    ("cremona.apply_map.self_s", "s", "lower"),
    ("cremona.transport.self_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

# span name -> [(module, attribute)]; "Class.method" patches the class
SPANS = {
    "poly.gcd": [("gridlab.poly", "gcd")],
    "poly.exact_div": [("gridlab.poly", "exact_div")],
    "poly.squarefree": [("gridlab.poly", "squarefree_part"),
                        ("gridlab.poly", "squarefree_in_vars")],
    "poly.substitute": [("gridlab.poly", "MultiPoly.substitute")],
    "hypersurfaces.construct": [("gridlab.hypersurfaces", "construct")],
    "hypersurfaces.reduce_mod": [("gridlab.hypersurfaces", "reduce_poly_mod"),
                                 ("gridlab.hypersurfaces", "reduce_hypersurface_mod")],
    "gridcheck.build_graph": [("gridlab.gridcheck", "build_graph")],
    "gridcheck.find_grid": [("gridlab.gridcheck", "find_grid")],
    "gridcheck.max_common": [("gridlab.gridcheck", "max_common_neighborhood")],
    "gridcheck.edge_report": [("gridlab.gridcheck", "edge_report")],
    "classify_s1.classify": [("gridlab.classify_s1", "s1_classify")],
    "classify_s1.reduce": [("gridlab.classify_s1", "s1_reduce")],
    "classify_s1.max_row": [("gridlab.classify_s1", "s1_max_row")],
    "curves.imult": [("gridlab.curves", "intersection_multiplicity")],
    "curves.rank_test": [("gridlab.curves", "common_component_rank_test")],
    "cremona.apply_map": [("gridlab.cremona", "apply_map")],
    "cremona.transport": [("gridlab.cremona", "grid_transport_check")],
}
COUNTED = {"hypersurfaces.contains.calls": ("gridlab.hypersurfaces", "OpenSet.contains")}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # every loaded gridlab module, by name
        self.spans: list = []  # [name, start, end, parent index, job index]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.job = None
        self.built: dict = {}  # id(graph) -> (graph, build seconds), this job
        self.patches: list = []  # (owner, attribute, original)

    def start_job(self, index: int) -> None:
        self.job = index
        self.built.clear()

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(rec)
            result = error = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(args, kwargs, result, error, rec)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_build(self, args, kwargs, G, error, rec):
        if G is not None:
            self.counts["gridcheck.vertices"] += len(G.left) + len(G.right)
            self.counts["gridcheck.edges"] += G.edge_count()
            self.built[id(G)] = (G, rec[2] - rec[1])

    def _after_scan(self, args, kwargs, result, error, rec):
        G = args[0]
        s = args[1] if len(args) > 1 else kwargs["s"]
        if isinstance(error, self.modules["gridlab.errors"].BudgetExceeded):
            self.counts["gridcheck.budget_refusals"] += 1
            self.counts["gridcheck.refused_build_s"] += self.built.get(id(G), (G, 0.0))[1]
        elif error is None:
            self.counts["gridcheck.scan_subsets"] += comb(len(G.rows), s)

    # -- patching --------------------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(self.modules[module], cls_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, make(original))
            self.patches.append((owner, meth, original))
            return
        original = getattr(self.modules[module], attr)
        wrapped = make(original)
        for mod in self.modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self.patches.append((mod, key, original))

    def install(self) -> None:
        hooks = {"gridcheck.build_graph": self._after_build,
                 "gridcheck.find_grid": self._after_scan,
                 "gridcheck.max_common": self._after_scan}
        for name, targets in SPANS.items():
            for module, attr in targets:
                self._patch(module, attr,
                            lambda fn, n=name: self._span(n, fn, hooks.get(n)))
        for name, (module, attr) in COUNTED.items():
            self._patch(module, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)
        self.patches.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    selfs = tracer.self_times()
    out = {}
    for name in SPANS:
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    out["poly.gcd.calls"] = sum(1 for rec in tracer.spans if rec[0] == "poly.gcd")
    for key in ("gridcheck.vertices", "gridcheck.edges", "gridcheck.scan_subsets",
                "gridcheck.budget_refusals", "gridcheck.refused_build_s",
                "hypersurfaces.contains.calls"):
        out[key] = tracer.counts.get(key, 0)
    out["trace.coverage"] = tracer.root_time() / traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


# -- field microbenchmarks -----------------------------------------------------------


def _ns_per_op(pairs, op, repeats=7) -> float:
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for a, b in pairs:
            op(a, b)
        samples.append(perf_counter() - t0)
    return statistics.median(samples) / len(pairs) * 1e9


def field_metrics(fields, seed: int, n: int = 4000) -> dict:
    """ns per FieldElem operation (loop and call overhead included) on a
    fixed operand stream drawn from the seed."""
    rng = random.Random(f"fields:{seed}")
    QQ, Fp, Fq = fields.QQ, fields.GF(101), fields.GF(5, 2)

    def q():
        return QQ.elem(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))

    def fq():
        return Fq.elem((rng.randrange(5), rng.randrange(1, 5)))

    qq = [(q(), q()) for _ in range(n)]
    fp = [(Fp.elem(rng.randrange(101)), Fp.elem(rng.randrange(101))) for _ in range(n)]
    fqs = [(fq(), fq()) for _ in range(n)]
    return {
        "fields.mul_ns.qq": _ns_per_op(qq, operator.mul),
        "fields.mul_ns.fp": _ns_per_op(fp, operator.mul),
        "fields.mul_ns.fq": _ns_per_op(fqs, operator.mul),
        "fields.inv_ns.fq": _ns_per_op(fqs, lambda a, _: a.inv()),
    }
