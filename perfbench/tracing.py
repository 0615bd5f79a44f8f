"""Span tracing installed from outside the library.

``Tracer.install()`` replaces each traced public function at every module
binding it is imported into (``eulerchar.classify`` as well as
``fincat.classify``), and the ``__post_init__`` validators of the core
dataclasses, with wrappers that record one span per call: name, start, end
and parent.  ``uninstall()`` puts the originals back; no library file is
edited.  Per-element accessors such as ``FinCat.compose`` stay unwrapped:
the audit calls them hundreds of thousands of times and a span each would
measure the tracer rather than the library.

Self time of a span is its duration minus the time covered by its children.
Spans are kept in memory and written out by ``dump``.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import weakref
from typing import Callable, Optional

# Every module of the package, so that each binding of a traced function is
# found wherever it was imported.
MODULES = (
    "eulcat", "eulcat.cli", "eulcat.manifest", "eulcat.fincat", "eulcat.ratlin",
    "eulcat.eulerchar", "eulcat.hocolim", "eulcat.groupact", "eulcat.groups",
    "eulcat.randgen", "eulcat.zoo",
)

# Traced functions, as (home module, attribute).
FUNCTIONS = (
    ("cli", "main"),
    ("manifest", "load_file"),
    ("fincat", "classify"), ("fincat", "iso_classes"), ("fincat", "skeleton"),
    ("fincat", "path_counts"),
    ("ratlin", "chi_L"), ("ratlin", "weighting"), ("ratlin", "coweighting"),
    ("ratlin", "solve_linear"),
    ("eulerchar", "chi_scwol"), ("eulerchar", "chi2_free_EI"), ("eulerchar", "groupoid_chi2"),
    ("hocolim", "grothendieck"), ("hocolim", "grothendieck_pseudo"),
    ("hocolim", "bar_spectrum"), ("hocolim", "check_hocolim_formula"),
    ("groupact", "quotient"), ("groupact", "complex_of_groups"), ("groupact", "hocolim_groups"),
    ("groupact", "skeletal_reduction"), ("groupact", "chi_theorems"),
    ("groupact", "developability_check"), ("groupact", "haefliger_chi"),
)

# Traced constructors: (home module, class, span name).  FinCat's span is
# split by its ``check`` argument into ``fincat.FinCat.checked`` and
# ``fincat.FinCat.unchecked``.
VALIDATORS = (
    ("fincat", "FinCat", "fincat.FinCat"),
    ("fincat", "CatFunctor", "fincat.CatFunctor"),
    ("groups", "FinGroup", "groups.FinGroup"),
    ("groups", "GroupHom", "groups.GroupHom"),
    ("groupact", "ScwolAction", "groupact.ScwolAction"),
    ("ratlin", "Weighting", "ratlin.Weighting.verify"),
)

# Spans whose input object is counted for ``distinct_frac``.
DISTINCT = ("fincat.classify", "fincat.iso_classes", "fincat.skeleton", "hocolim.grothendieck")

SPAN_NAMES = (
    tuple(f"{mod}.{attr}" for mod, attr in FUNCTIONS)
    + tuple(name for _, _, name in VALIDATORS if name != "fincat.FinCat")
    + ("fincat.FinCat.checked", "fincat.FinCat.unchecked")
)


def composable_triples(cat) -> int:
    """Number of composable triples (h, g, f), identities included: the
    associativity checks a full validation makes."""
    out_degree = {x: len(cat.morphisms_from(x)) for x in cat.objects}
    pairs_from = {
        x: sum(out_degree[cat.target(g)] for g in cat.morphisms_from(x)) for x in cat.objects
    }
    return sum(pairs_from[m.target] for m in cat.morphisms)


class Tracer:
    """Records spans while installed.  Single-threaded, like the library."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._seen = {name: weakref.WeakSet() for name in DISTINCT}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, name_id: int, fn, args, kwargs):
        stack = self._stack
        record = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of the given name (used for task roots)."""
        return self.call(self.name_id(name), fn, args, kwargs)

    # -- installation -------------------------------------------------------

    def _wrap_function(self, name: str, fn, hook: Optional[Callable]):
        nid = self.name_id(name)
        call = self.call

        def traced(*args, **kwargs):
            result = None
            try:
                result = call(nid, fn, args, kwargs)
                return result
            finally:  # also after a raise: a rejected manifest was still read
                if hook is not None:
                    hook(args, result)

        return traced

    def _hooks(self) -> dict[str, Callable]:
        """Counters recorded after a traced call returns or raises; ``result``
        is None when it raised."""
        def distinct(name):
            def hook(args, result):
                seen = self._seen[name]
                if args[0] not in seen:
                    seen.add(args[0])
                    self.count(f"{name}.distinct")
            return hook

        def depth(args, result):
            if result is not None:
                key = "fincat.path_counts.depth_max"
                self.counters[key] = max(self.counters.get(key, 0), len(result.counts) - 1)

        def out_morphisms(cat):
            if cat is not None:
                self.count("hocolim.out_morphisms", len(cat.morphisms))

        grothendieck_seen = distinct("hocolim.grothendieck")

        def grothendieck(args, result):
            grothendieck_seen(args, result)
            out_morphisms(result and result.category)

        return {
            "fincat.classify": distinct("fincat.classify"),
            "fincat.iso_classes": distinct("fincat.iso_classes"),
            "fincat.skeleton": distinct("fincat.skeleton"),
            "fincat.path_counts": depth,
            "ratlin.solve_linear": lambda args, result: self.count(
                "ratlin.solve_linear.cells", args[0].nrows * args[0].ncols),
            "hocolim.grothendieck": grothendieck,
            "hocolim.grothendieck_pseudo": lambda args, result: out_morphisms(result),
            "manifest.load_file": lambda args, result: self.count(
                "manifest.bytes_in", os.path.getsize(args[0])),
        }

    def _wrap_validator(self, name: str, init):
        call = self.call
        if name != "fincat.FinCat":
            nid = self.name_id(name)

            def traced(obj, *args, **kwargs):
                call(nid, init, (obj, *args), kwargs)
            return traced

        checked, unchecked = self.name_id(f"{name}.checked"), self.name_id(f"{name}.unchecked")

        def traced_fincat(obj, check=True):
            call(checked if check else unchecked, init, (obj, check), {})
            if check:
                self.count("fincat.FinCat.checked.triples", composable_triples(obj))
        return traced_fincat

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(name) for name in MODULES}
        hooks = self._hooks()
        wrappers = {}
        for mod, attr in FUNCTIONS:
            fn = getattr(modules[f"eulcat.{mod}"], attr)
            name = f"{mod}.{attr}"
            wrappers[id(fn)] = (fn, self._wrap_function(name, fn, hooks.get(name)))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        for mod, cls_name, name in VALIDATORS:
            cls = getattr(modules[f"eulcat.{mod}"], cls_name)
            init = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", init))
            cls.__post_init__ = self._wrap_validator(name, init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_times(self, first: int = 0, last: Optional[int] = None) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over spans[first:last].

        Spans nest strictly (one thread, one stack), so the time a span's
        children cover is the sum of their durations.
        """
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for rec in spans:
            parent = rec[3] - first
            if parent >= 0:
                child[parent] += rec[2] - rec[1]
        out: dict[str, list] = {}
        for i, rec in enumerate(spans):
            acc = out.setdefault(self.names[rec[0]], [0, 0.0])
            acc[0] += 1
            acc[1] += (rec[2] - rec[1]) - child[i]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def reset_counters(self) -> None:
        self.counters = {}
        self._seen = {name: weakref.WeakSet() for name in DISTINCT}

    def dump(self, path: str) -> None:
        """Write every recorded span as JSON: names plus [name id, start, end, parent]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")
