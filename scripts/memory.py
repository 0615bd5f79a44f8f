#!/usr/bin/env python3
"""Measure what a benchmark workload's set-up holds in memory.

    python3 scripts/memory.py --workload audit [--seed N] [--size full|tiny]

Runs the set-up of ``perfbench/workloads.py`` for the workload once, under
``tracemalloc``, and prints one JSON object:

- ``traced_bytes`` and ``traced_peak_bytes``: what tracemalloc traces once
  the set-up has returned (after a collection), and its peak during it;
- ``categories``: the ``FinCat``s reachable from the set-up's tasks, and
  ``with_views`` how many of them hold a name view;
- ``views``: per name view (``morphisms``, ``composition``, ``_hom``,
  ``_by_source``, ``_invertible``), the categories that hold it;
- ``view_bytes``: the bytes those views hold beyond the rows;
- ``row_bytes``: the bytes the categories' ``_ends`` hold (their rows, or
  a total's arrays and what of its rows it has made);
- ``cells``: the composition entries the categories' rows hold (a
  total's only once they are made), ``row_tuples`` the distinct row
  tuples that hold them (a tuple that several morphisms share, as in a
  groupoid's rows, is one), and ``row_container_bytes`` the bytes of those
  tuples alone (without the composites they hold), so that the ratio of
  bytes to cells is the layout's cost per entry;
- ``functors``: the ``CatFunctor``s reachable from the set-up's tasks, and
  ``functor_views`` how many of them hold an ``obj_map`` or ``mor_map``
  view made from their arrays (a map given by name is no view), counted
  in a second, untraced set-up;
- ``functor_bytes``: the bytes the functors' arrays (``_arrays``) hold.

Bytes are ``sys.getsizeof`` summed over each object reachable from a row
or a view, each object counted once, rows first, so a name string that a
row and a view share is a row's.  Reading a category or a functor here
makes no view.
Manifests the set-up writes go to a temporary directory.  Nothing under
``perfbench/`` is edited.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import tracemalloc
import types
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from eulcat.fincat import CatFunctor, FinCat, Morphism, _Ends  # noqa: E402
from eulcat.hocolim import _TotalRows  # noqa: E402

VIEWS = ("morphisms", "composition", "_hom", "_by_source", "_invertible")
LEAVES = (str, int, float, bool, type(None), type, types.ModuleType)


def categories(root) -> list[FinCat]:
    """The FinCats reachable from ``root`` (see ``reachable``)."""
    return reachable(root)[0]


def reachable(root) -> tuple[list[FinCat], list[CatFunctor]]:
    """The FinCats and the CatFunctors reachable from ``root``, through
    containers, instances and closures, but not through a function's
    globals, a class or a module."""
    found, functors, seen, stack = [], [], set(), [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, FinCat):
            found.append(obj)
        elif isinstance(obj, CatFunctor):
            functors.append(obj)
        if isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
        elif not isinstance(obj, (types.BuiltinFunctionType, types.MethodWrapperType)):
            stack.extend(gc.get_referents(obj))
    return found, functors


def slot_values(obj) -> list:
    """The values of the slots of ``obj`` that are set, read off the slot
    descriptors, so no ``_OnFirstRead`` of a subclass runs, and of the
    fields of a total's rows made so far but the plan (``_TotalRows``)."""
    values = []
    for cls in type(obj).__mro__:
        for slot in cls.__dict__.get("__slots__", ()):  # a class's own, not inherited
            try:
                values.append(cls.__dict__[slot].__get__(obj, cls))
            except AttributeError:
                pass
    if isinstance(obj, _TotalRows):
        values += [value for key, value in vars(obj).items() if key != "plan"]
    return values


def held_rows(ends: _Ends):
    """The composition rows ``ends`` holds, or None: a total's only once
    made, read without making them."""
    return vars(ends).get("rows") if isinstance(ends, _TotalRows) else ends.rows


def deep_size(root, seen: set) -> int:
    """``sys.getsizeof`` summed over ``root`` and the containers, records,
    rows and names it holds, skipping the objects in ``seen``, which it
    extends."""
    total, stack = 0, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, Morphism):
            stack.append(vars(obj))
        elif isinstance(obj, _Ends):
            stack.extend(slot_values(obj))
    return total


def measure(workload: str, seed: int, size: str) -> dict:
    """Set up ``workload`` and report what it holds (see the module
    docstring)."""
    with tempfile.TemporaryDirectory() as out_dir:
        gc.collect()
        tracemalloc.start()
        tasks = workloads.WORKLOADS[workload](seed, out_dir, size)
        gc.collect()
        traced, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        cats, functors = reachable(tasks)
        seen: set = set()
        row_bytes = sum(deep_size(cat._ends, seen) for cat in cats)
        held = {id(cat._ends): rows for cat in cats if (rows := held_rows(cat._ends)) is not None}
        cells = sum(len(row) for rows in held.values() for row in rows)
        tuples = {id(row): row for rows in held.values() for row in rows}
        row_container_bytes = sum(map(sys.getsizeof, tuples.values()))
        held = {attr: [cat for cat in cats if attr in vars(cat)] for attr in VIEWS}
        view_bytes = sum(deep_size(vars(cat)[attr], seen) for attr in VIEWS for cat in held[attr])
        functor_bytes = sum(deep_size(fun._arrays, seen) for fun in functors)
        return {
            "workload": workload, "seed": seed, "size": size, "tasks": len(tasks),
            "traced_bytes": traced, "traced_peak_bytes": peak,
            "categories": len(cats),
            "with_views": sum(any(attr in vars(cat) for attr in VIEWS) for cat in cats),
            "views": {attr: len(held[attr]) for attr in VIEWS},
            "view_bytes": view_bytes, "row_bytes": row_bytes,
            "cells": cells, "row_tuples": len(tuples), "row_container_bytes": row_container_bytes,
            "functors": len(functors), "functor_views": functor_views(workload, seed, size),
            "functor_bytes": functor_bytes,
        }


def functor_views(workload: str, seed: int, size: str) -> int:
    """How many of the functors reachable from a second set-up of
    ``workload``, run untraced, had a map view made from their arrays
    (``CatFunctor._make``) during it: counted apart, so that the count
    does not add to the traced bytes."""
    viewed, make = weakref.WeakSet(), CatFunctor._make
    CatFunctor._make = lambda fun, attr: viewed.add(fun) or make(fun, attr)
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            tasks = workloads.WORKLOADS[workload](seed, out_dir, size)
    finally:
        CatFunctor._make = make
    return sum(fun in viewed for fun in reachable(tasks)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
