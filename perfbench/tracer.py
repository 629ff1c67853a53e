"""Spans around the public functions of each tarl module (the layers).

`install` replaces each traced function on every tarl module that binds it,
so a call that crosses layers through a name bound at import (search ->
check_proof, algebra -> tables_for, registry -> parse_proof_script, ...)
opens a span of the callee's layer and its time counts against that layer.
Spans (label, start, end, parent, item) and counts stay in memory until
`dump` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
import types
from collections import defaultdict

import tarl
from tarl import algebra, derived, formulas, groups, models, registry, search, sequents

_MODULES = (tarl, formulas, sequents, derived, search, models, algebra, groups,
            registry)
LAYERS = ("formulas", "sequents", "derived", "search", "models", "algebra",
          "groups", "registry")
SEARCH_KINDS = ("corpus", "instance", "random")


def _algebra_label(args):
    return "algebra.proper" if isinstance(args[0], algebra.ProperAlgebra) else "algebra.complex"


# traced function -> span label (a string, or a function of the arguments)
_TRACED = {
    formulas.parse_formula: "formulas.parse",
    sequents.parse_proof_script: "sequents.parse",
    sequents.check_proof: "sequents.check",
    sequents.format_proof_script: "sequents.format",
    sequents.substitute_proof: "sequents.substitute",
    derived.apply_derived_rule: "derived.apply",
    search.search_proof: "search",
    models.tables_for: lambda args: f"models.tables.n{len(args[0].elements)}",
    models.valid_in: "models.valid",
    models.find_invalidating_singletons: "models.singletons",
    models.check_postulates: "models.audit",
    models.enumerate_structures: "models.enumerate",
    algebra.verified_in_algebra: _algebra_label,
    algebra.holds_law: _algebra_label,
    algebra.check_chain: "algebra.chain",
    groups.build_atom_structure: "groups",
    registry.get_structure: "registry",
    registry.get_formula: "registry",
    registry.get_corpus_entry: "registry",
    registry.list_corpus: "registry",
    registry.corpus_ids: "registry",
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item: list[int] = []
        self.stack: list[int] = []
        self.item_id = -1          # -1 while setting up
        self.kind = ""             # the current item's kind
        self.active = True
        self.clock = time.perf_counter  # the run swaps in one without sampling
        self.counts: dict[str, float] = defaultdict(float)
        self.valid_calls: list[tuple] = []

    def open(self, label: str) -> int:
        i = len(self.labels)
        self.labels.append(label)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    def observe(self, label: str, fn_name: str, args, out) -> None:
        """Counts taken at the layer boundary, from arguments and results."""
        c = self.counts
        if label == "search":
            for key in ("", "." + self.kind):
                c["search.attempted" + key] += 1
                c["search.nodes" + key] += out.nodes
                c["search.proved" + key] += out.proved
                c["search.exhausted" + key] += out.status == "budget_exhausted"
        elif label == "sequents.check":
            c["sequents.check.lines"] += len(args[0].lines)
        elif label == "derived.apply":
            c["derived.apply.out_lines"] += len(out.lines)
        elif label == "models.valid":
            self.valid_calls.append((args[0], args[1]))
        elif fn_name == "holds_law":
            c[label + ".checked"] += out.checked

    # -- installation ---------------------------------------------------

    def _wrap(self, fn, label):
        label_of = label if callable(label) else (lambda args: label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = label_of(args)
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            self.observe(name, fn.__name__, args, out)
            return out

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if not self.active:
                    yield from inner
                    return
                i = self.open(label)
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                self.counts["models.enumerate.yielded"] += 1
                yield value

        return traced_generator if inspect.isgeneratorfunction(fn) else traced

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, label) for fn, label in _TRACED.items()}
        for module in _MODULES:
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, name, wrappers[value])

    # -- results --------------------------------------------------------

    def span_self(self) -> list[float]:
        """Each span's self time: its duration minus its children's."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def top_level_time(self) -> float:
        """Time covered by outermost spans opened during the timed items."""
        return sum(self.end[i] - self.start[i] for i, p in enumerate(self.parent)
                   if p < 0 and self.item[i] >= 0)

    def dump(self, path) -> None:
        payload = {"labels": self.labels, "start": self.start, "end": self.end,
                   "parent": self.parent, "item": self.item,
                   "counts": dict(self.counts)}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def layer_metrics(tracer: Tracer, kinds: list[str], run_s: float,
                  scale: float) -> dict[str, float]:
    """The per-layer metrics, from the spans and counts of one traced run;
    measured times are multiplied by `scale`."""
    span_self = [t * scale for t in tracer.span_self()]
    st: dict[str, float] = defaultdict(float)
    search_by_kind: dict[str, float] = defaultdict(float)
    for i, label in enumerate(tracer.labels):
        st[label] += span_self[i]
        if label == "search":
            search_by_kind[kinds[tracer.item[i]]] += span_self[i]
    c = tracer.counts

    def total(prefix: str) -> float:
        return sum(v for k, v in st.items() if k == prefix or k.startswith(prefix + "."))

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(layer)
    m["bench.self_s"] = (run_s - tracer.top_level_time()) * scale

    for key in ("",) + tuple("." + k for k in SEARCH_KINDS):
        self_s = search_by_kind[key[1:]] if key else m["search.self_s"]
        if key:
            m["search.self_s" + key] = self_s
        nodes = c["search.nodes" + key]
        m["search.nodes" + key] = nodes
        m["search.nodes_per_s" + key] = rate(nodes, self_s)
        m["search.proved_ratio" + key] = rate(c["search.proved" + key],
                                              c["search.attempted" + key])
        m["search.exhausted" + key] = c["search.exhausted" + key]

    for name in ("parse", "check", "format", "substitute"):
        m[f"sequents.{name}.self_s"] = st["sequents." + name]
    m["sequents.check.lines_per_s"] = rate(c["sequents.check.lines"],
                                           st["sequents.check"])
    m["formulas.parse.self_s"] = st["formulas.parse"]
    m["derived.apply.self_s"] = st["derived.apply"]
    m["derived.apply.out_lines"] = c["derived.apply.out_lines"]

    m["models.tables.self_s"] = total("models.tables")
    for n in (3, 4, 6, 7, 8):
        m[f"models.tables.self_s.n{n}"] = st[f"models.tables.n{n}"]
    valuations = 0
    for structure, f in tracer.valid_calls:
        valuations += (len(models.hereditary_subsets(structure))
                       ** len(formulas.variables(f)))
    m["models.valid.self_s"] = st["models.valid"]
    m["models.valid.valuations_per_s"] = rate(valuations, st["models.valid"])
    m["models.singletons.self_s"] = st["models.singletons"]

    m["algebra.complex.self_s"] = st["algebra.complex"]
    m["algebra.complex.checked"] = c["algebra.complex.checked"]
    m["algebra.proper.self_s"] = st["algebra.proper"]
    m["algebra.proper.trials_per_s"] = rate(c["algebra.proper.checked"],
                                            st["algebra.proper"])
    m["algebra.chain.self_s"] = st["algebra.chain"]

    audits = sum(1 for label in tracer.labels if label == "models.audit")
    enum_spans = {i for i, label in enumerate(tracer.labels) if label == "models.enumerate"}
    enum_audits = sum(1 for i, label in enumerate(tracer.labels)
                      if label == "models.audit" and tracer.parent[i] in enum_spans)
    m["models.audit.calls"] = audits
    m["models.audit.self_s"] = st["models.audit"]
    m["models.audit.per_call_us"] = rate(st["models.audit"] * 1e6, audits)
    m["models.enumerate.self_s"] = st["models.enumerate"]
    m["models.enumerate.yielded"] = c["models.enumerate.yielded"]
    m["models.enumerate.yield_ratio"] = rate(c["models.enumerate.yielded"], enum_audits)
    m["trace.spans"] = len(tracer.labels)
    return m
