"""Spans and work counts for the traced run.

The program itself is not changed.  While a ``Tracer`` is installed, the
public functions of each opdim module are replaced, on the module objects
their callers look them up on, by wrappers that record a span around the
call; and the context classes are replaced by factories that return a
``RecordingContext``, the proxy the rank and pattern engines then receive as
their ``context`` argument.  Private helpers are not wrapped.

A span holds its name, start, end, parent span and query id.  Spans stay in
memory and are aggregated, and optionally written out, when the run ends.  A
layer is the first component of a span name; its self time is the time its
spans cover minus the time their child spans cover, so the self times of all
layers plus the time outside any span add up to the traced wall time.
"""
from __future__ import annotations

import functools
import itertools
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span name, work counter fed from the result)
PATCHES = (
    ("logic", "parse_partitioned", "logic.parse", None),
    ("cli", "parse_partitioned", "logic.parse", None),
    ("cli", "parse_formula", "logic.parse", None),
    ("contexts", "evaluate", "logic.evaluate", None),
    ("ranks", "op_rank", "ranks.op_rank", None),
    ("ranks", "shelah_rank2", "ranks.shelah_rank2", None),
    ("ranks", "gamma_consistent", "ranks.gamma", None),
    ("ranks", "localized_opd", "ranks.localized_opd", None),
    ("ranks", "op_dimension", "ranks.op_dimension", None),
    ("patterns", "search_ird", "patterns.search", "patterns.checks_used"),
    ("patterns", "search_ict", "patterns.search", "patterns.checks_used"),
    ("patterns", "dp_rank_lower", "patterns.dp_rank", None),
    ("patterns", "check_ird", "patterns.check", None),
    ("patterns", "check_ict", "patterns.check", None),
    ("patterns", "ird_to_ict", "patterns.transform", None),
    ("dlo", "order_diagrams", "dlo.order_diagrams", "dlo.diagrams_returned"),
    ("dlo", "dimension", "dlo.dimension", None),
    ("dlo", "qe_dlo", "dlo.qe", None),
    ("dlo", "sat_sample", "dlo.sat_sample", "dlo.sat_sample.sat"),
    ("dlo", "product", "dlo.product", None),
    ("dlo", "ird_witness_from_dim", "dlo.witness", None),
    ("multiorder", "grid_embed", "multiorder.embed", None),
    ("multiorder", "enumerate_multicuts", "multiorder.cuts", "multiorder.cuts_enumerated"),
    ("multiorder", "check_mop_witness", "multiorder.mop", None),
    ("multiorder", "extension_property_level", "multiorder.extcheck", None),
    ("multiorder", "amalgamate", "multiorder.amalgamate", None),
    ("multiorder", "generate_generic", "multiorder.gen", None),
    ("multiorder", "check_embedding", "multiorder.check_embedding", None),
    ("cli", "main", "cli.main", None),
)

# context classes, replaced by factories of recording proxies
CONTEXT_CLASSES = (("contexts", "FiniteContext"), ("cli", "FiniteContext"),
                   ("multiorder", "FiniteContext"), ("dlo", "DloContext"))

# how a work counter is fed from a wrapped call's result
OBSERVERS = {
    "patterns.checks_used": lambda r: r.checks_used,
    "dlo.diagrams_returned": len,
    "dlo.sat_sample.sat": lambda r: r is not None,
    "multiorder.cuts_enumerated": len,
}

LAYERS = ("logic", "contexts", "ranks", "patterns", "dlo", "multiorder", "cli")

# The per-layer metrics the traced run reports: name -> unit.
PER_LAYER = {}
for _name in ("logic.parse", "logic.evaluate", "contexts.restrict", "contexts.is_empty",
              "contexts.cache_key", "contexts.sat", "ranks.op_rank", "ranks.shelah_rank2",
              "ranks.gamma", "patterns.search", "patterns.check", "dlo.order_diagrams",
              "dlo.dimension", "dlo.qe", "dlo.sat_sample", "cli.main"):
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.s"] = "s"
PER_LAYER.update({
    "contexts.cache_key.distinct_ratio": "ratio",
    "contexts.sat.hit_ratio": "ratio",
    "contexts.candidates": "count",
    "patterns.checks_used": "count",
    "dlo.diagrams_returned": "count",
    "dlo.sat_sample.sat_ratio": "ratio",
    "multiorder.embed.s": "s",
    "multiorder.cuts.s": "s",
    "multiorder.mop.s": "s",
    "multiorder.extcheck.s": "s",
    "multiorder.amalgamate.s": "s",
    "multiorder.calls": "count",
    "multiorder.cuts_enumerated": "count",
    "cli.exit_unexpected": "count",
})
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({"bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_ratio": "ratio"})


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.stack = []
        self.query_id = -1
        self.active = False
        self.counts = Counter()
        self.cache_keys = set()
        self.context_serial = itertools.count()
        self.saved = []

    def call(self, name, fn, args, kwargs, counter=None):
        if not self.active:
            return fn(*args, **kwargs)
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self.stack.pop()
        if counter:
            self.counts[counter] += OBSERVERS[counter](result)
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    def install(self, api):
        """Patch the modules in api; undone by uninstall."""
        for module, attr, name, counter in PATCHES:
            self._patch(getattr(api, module), attr,
                        self.wrap(name, getattr(getattr(api, module), attr), counter))
        for module, attr in CONTEXT_CLASSES:
            cls = getattr(getattr(api, module), attr)
            self._patch(getattr(api, module), attr,
                        lambda *a, cls=cls, **k: RecordingContext(cls(*a, **k), self))

    def _patch(self, module, attr, value):
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        while self.saved:
            module, attr, value = self.saved.pop()
            setattr(module, attr, value)

    # -- results ----------------------------------------------------------

    def aggregate(self, wall):
        """Per-name calls and inclusive seconds, per-layer self seconds, and
        the time outside every span."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += dur[i]
        calls, seconds, self_s = Counter(), Counter(), Counter()
        top = 0.0
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            seconds[name] += dur[i]
            self_s[name.split(".")[0]] += dur[i] - covered[i]
            if self.parent[i] < 0:
                top += dur[i]
        return calls, seconds, self_s, wall - top

    def metrics(self, wall, untraced_wall, exit_unexpected):
        """Every PER_LAYER metric, for spans recorded over `wall` seconds."""
        calls, seconds, self_s, outside = self.aggregate(wall)
        c = self.counts
        values = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[base]
            elif kind == "s":
                values[metric] = seconds[base]
        values.update({
            "contexts.cache_key.distinct_ratio": ratio(len(self.cache_keys), calls["contexts.cache_key"]),
            "contexts.sat.hit_ratio": ratio(c["contexts.sat.hit"], calls["contexts.sat"]),
            "contexts.candidates": c["contexts.candidates"],
            "patterns.checks_used": c["patterns.checks_used"],
            "dlo.diagrams_returned": c["dlo.diagrams_returned"],
            "dlo.sat_sample.sat_ratio": ratio(c["dlo.sat_sample.sat"], calls["dlo.sat_sample"]),
            "multiorder.calls": sum(v for k, v in calls.items() if k.startswith("multiorder.")),
            "multiorder.cuts_enumerated": c["multiorder.cuts_enumerated"],
            "cli.exit_unexpected": exit_unexpected,
            "bench.self_s": outside,
            "trace.wall_s": wall,
            "trace.overhead_ratio": wall / untraced_wall,
        })
        values.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
        return values

    def write(self, path):
        """The spans as tab-separated name, start, end, parent, query."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.query[i]}\n")


def ratio(part, whole):
    return part / whole if whole else 0.0


class RecordingContext:
    """A context whose engine-facing methods are recorded as contexts.* spans;
    everything else is passed through to the wrapped context."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self._serial = next(tracer.context_serial)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def restrict(self, s, phi, params, sign):
        return self._tracer.call("contexts.restrict", self._inner.restrict, (s, phi, params, sign), {})

    def is_empty(self, s):
        return self._tracer.call("contexts.is_empty", self._inner.is_empty, (s,), {})

    def cache_key(self, s):
        key = self._tracer.call("contexts.cache_key", self._inner.cache_key, (s,), {})
        if self._tracer.active:
            self._tracer.cache_keys.add((self._serial, key))
        return key

    def sat(self, s, constraints):
        found = self._tracer.call("contexts.sat", self._inner.sat, (s, constraints), {})
        if self._tracer.active and found is not None:
            self._tracer.counts["contexts.sat.hit"] += 1
        return found

    def instance_candidates(self, phi, s=None):
        return self._candidates(self._inner.instance_candidates(phi, s))

    def witness_params(self, phi, extra=()):
        return self._candidates(self._inner.witness_params(phi, extra))

    def _candidates(self, out):
        if self._tracer.active:
            self._tracer.counts["contexts.candidates"] += len(out)
        return out
