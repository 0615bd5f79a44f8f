#!/usr/bin/env python3
"""Measure how category validation, building and writing scale, on families with known chi.

    python3 scripts/scaling.py [--repeat K] [--smallest]

Two validation families, each run at sizes that about double its
composition table:

- ``BZ``: B(Z/n), the one-object category of the cyclic group of order n,
  for n = 30, 60, 120, 240; its oracle is chi_L = 1/n;
- ``FinSet``: FinSet<=n, the sets {0, ..., k-1} for k = 0..n and every
  function between them, for n = 1, 2, 3, 4 (FinSet<=4 has 499 morphisms
  and 133,799 composition entries); the empty set is initial, so its
  oracle is chi_L = 1.  It is built here from its functions.

Per size, the best of ``K`` runs (default 5) of ``fincat.validate`` on the
category's manifest payload as ``json.load`` reads it from a file, as the
CLI does (``validate_s``; a payload whose entries were built in another
order than they are listed is read from scattered memory, and validates
measurably slower at the largest sizes), and of the checked constructor
``FinCat(objects, morphisms, identity, composition)`` (``checked_s``), and
chi_L of the validated category, checked against the oracle on every run.

One writer family, ``ZnCone``: the Grothendieck total of Z/n acting
trivially on ``cone(polygon_scwol(4))`` (its complex of groups as a pseudo
diagram), for n = 2, 4, 8, 16, 32 (50 to 800 morphisms); chi of the cone
is 1, so its oracle is chi_L = 1/n.  Per size, the best of ``K`` runs of
``manifest._dumps`` on a freshly built total, which makes its composition
rows for the write (``write_s``), the size of the text (``bytes``), and
chi_L of the category read back from the text, checked against the
oracle on every run.

One building family, ``SubsetsOp``: ``zoo.subsets_poset_opposite(q)``, the
opposite of the poset of non-empty subsets of {0, ..., q}, for q = 2..6 (19
to 2,059 morphisms; its size is q, reported as ``n``).  Per size, the best
of ``K`` runs of the builder (``build_s``), with three closed forms checked
on every run: 3^(q+1) - 2^(q+1) morphisms (the pairs K <= J of subsets, K
non-empty), 4^(q+1) - 3^(q+1) composition entries (the chains
K2 <= K <= J, K2 non-empty), and chi_L = 1 (the whole set is initial).

A second building family, ``Groupoid``: the connected groupoid on three
objects with vertex group Z/n, ``randgen.connected_groupoid``, for n = 2,
4, 8, 16, 32 (18 to 288 morphisms), each group made once per size, so
that the best of ``K`` runs times the groupoid alone; its oracles are 9n
morphisms (n per ordered pair of objects), 27n^2 composition entries (n^2
per composable pair of ordered pairs) and chi_L = 1/n.

A third building family, ``Polygon``: ``zoo.polygon_scwol(n)``, the face
scwol of the subdivided n-gon, for n = 40, 80, 160, 320, 640 (160 to 2,560
morphisms); its oracles are 4n morphisms (2n identities, an arrow from
each edge to each of its two ends), 6n composition entries (one per
identity of a vertex or an arrow, three per identity of an edge) and
chi_L = 0 (a circle).  A building family's ``entries`` are the cells of
the built category's rows, counted after the timed build, so ``build_s``
covers the rows and positions its writer hands over.

Per family, the log-log slope of each time between the two largest sizes,
over n (``slope``) and over the composition entries
(``slope_over_entries``); a checker linear in its entries has a slope of 2
over n on ``BZ``, and a builder linear in its entries a slope of 1 over
them on ``SubsetsOp``, ``Groupoid`` and ``Polygon``.  ``--smallest`` runs the smallest
size of each family only, with no slope.

Prints one JSON object; exits 1 if an oracle fails.  Standard library only.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from eulcat import fincat, groupact, hocolim, manifest, randgen, ratlin, zoo  # noqa: E402
from eulcat.fincat import FinCat, Morphism  # noqa: E402
from eulcat.groups import cyclic_group  # noqa: E402


def cyclic_payload(n: int) -> dict:
    """The manifest payload of B(Z/n)."""
    return manifest.category_payload(zoo.one_object_category(cyclic_group(n)))


def finset_payload(n: int) -> dict:
    """The manifest payload of FinSet<=n: objects "0".."n", a morphism
    k>m:f per function f from {0..k-1} to {0..m-1}, written as its values,
    and g o f the function i -> g(f(i))."""
    objects = [str(k) for k in range(n + 1)]
    maps = {(k, m): list(itertools.product(range(m), repeat=k))
            for k in range(n + 1) for m in range(n + 1)}

    def name(k: int, m: int, f: tuple) -> str:
        return f"{k}>{m}:{''.join(map(str, f))}"

    morphisms = [{"id": name(k, m, f), "source": str(k), "target": str(m)}
                 for (k, m), fs in maps.items() for f in fs]
    compose = [[name(m, p, g), name(k, m, f), name(k, p, tuple(g[i] for i in f))]
               for k, m, p in itertools.product(range(n + 1), repeat=3)
               for f in maps[k, m] for g in maps[m, p]]
    return {"name": f"FinSet<={n}", "objects": objects, "morphisms": morphisms,
            "identity": {str(k): name(k, k, tuple(range(k))) for k in range(n + 1)},
            "compose": compose}


def trivial_cone_diagram(n: int) -> hocolim.PseudoDiagram:
    """The pseudo diagram whose total is the homotopy quotient of Z/n
    acting trivially on ``cone(polygon_scwol(4))``."""
    action = groupact.trivial_action(cyclic_group(n), zoo.cone(zoo.polygon_scwol(4)))
    return groupact.complex_to_pseudo_diagram(groupact.complex_of_groups(action).complex)


def best_of(repeat: int, fn) -> tuple[float, object]:
    """The least wall time of ``repeat`` calls of ``fn``, and its last value."""
    best, value = math.inf, None
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def checked_args(payload: dict) -> tuple:
    """The arguments of the checked constructor for ``payload``."""
    morphisms = tuple(Morphism(m["id"], m["source"], m["target"]) for m in payload["morphisms"])
    composition = {(g, f): gf for g, f, gf in payload["compose"]}
    return (tuple(payload["objects"]), morphisms, dict(payload["identity"]), composition,
            payload["name"])


def validation(payload_of):
    """The layers of a validation family whose payload of size n is
    ``payload_of(n)``: a function of n and K giving the size's report and
    chi_L of the validated category."""
    def run(n: int, repeat: int) -> tuple[dict, Fraction]:
        payload = json.loads(json.dumps(payload_of(n)))
        validate_s, cat = best_of(repeat, lambda: fincat.validate(payload, payload["name"]))
        args = checked_args(payload)
        checked_s, _ = best_of(repeat, lambda: FinCat(*args))
        return {"morphisms": len(payload["morphisms"]), "entries": len(payload["compose"]),
                "validate_s": round(validate_s, 6), "checked_s": round(checked_s, 6)}, \
            ratlin.chi_L(cat)
    return run


def writing(diagram_of):
    """The layer of a writer family whose pseudo diagram of size n is
    ``diagram_of(n)``: a function of n and K giving the size's report and
    chi_L of the category read back from the written text."""
    def run(n: int, repeat: int) -> tuple[dict, Fraction]:
        d = diagram_of(n)
        write_s, text = math.inf, ""
        for _ in range(repeat):
            total = hocolim.grothendieck_pseudo(d)  # fresh, so each write makes its rows
            start = time.perf_counter()
            text = manifest._dumps({"category": total})
            write_s = min(write_s, time.perf_counter() - start)
        payload = json.loads(text)["category"]
        return {"morphisms": len(payload["morphisms"]), "entries": len(payload["compose"]),
                "write_s": round(write_s, 6), "bytes": len(text)}, \
            ratlin.chi_L(fincat.validate(payload))
    return run


cyclic = functools.cache(cyclic_group)  # one group per size, made outside the best time


def building(build):
    """The layer of a building family whose category of size n is
    ``build(n)``: a function of n and K giving the size's report and chi_L
    of the built category."""
    def run(n: int, repeat: int) -> tuple[dict, Fraction]:
        build_s, cat = best_of(repeat, lambda: build(n))
        r = cat._ends
        return {"morphisms": len(r.names), "entries": sum(map(len, r.rows)),
                "build_s": round(build_s, 6)}, ratlin.chi_L(cat)
    return run


# family -> (the report of size n and K and its chi_L, the values of size n
# that the oracle fixes, sizes, the oracle in words)
FAMILIES = {
    "BZ": (validation(cyclic_payload), lambda n: {"chi_L": Fraction(1, n)}, (30, 60, 120, 240),
           "chi_L = 1/n"),
    "FinSet": (validation(finset_payload), lambda n: {"chi_L": Fraction(1)}, (1, 2, 3, 4),
               "chi_L = 1"),
    "ZnCone": (writing(trivial_cone_diagram), lambda n: {"chi_L": Fraction(1, n)},
               (2, 4, 8, 16, 32), "chi_L = 1/n"),
    "SubsetsOp": (building(zoo.subsets_poset_opposite),
                  lambda q: {"morphisms": 3 ** (q + 1) - 2 ** (q + 1),
                             "entries": 4 ** (q + 1) - 3 ** (q + 1), "chi_L": Fraction(1)},
                  (2, 3, 4, 5, 6),
                  "morphisms = 3^(q+1) - 2^(q+1), entries = 4^(q+1) - 3^(q+1), chi_L = 1"),
    "Groupoid": (building(lambda n: randgen.connected_groupoid(cyclic(n), 3, "g")[0]),
                 lambda n: {"morphisms": 9 * n, "entries": 27 * n * n, "chi_L": Fraction(1, n)},
                 (2, 4, 8, 16, 32), "morphisms = 9n, entries = 27n^2, chi_L = 1/n"),
    "Polygon": (building(zoo.polygon_scwol),
                lambda n: {"morphisms": 4 * n, "entries": 6 * n, "chi_L": Fraction(0)},
                (40, 80, 160, 320, 640), "morphisms = 4n, entries = 6n, chi_L = 0"),
}


def slope(sizes: list[dict], x: str, y: str) -> float:
    """The log-log slope of ``y`` over ``x`` between the last two sizes."""
    a, b = sizes[-2], sizes[-1]
    return round(math.log(b[y] / a[y]) / math.log(b[x] / a[x]), 3)


def measure(family: str, repeat: int, smallest: bool) -> tuple[dict, list[str]]:
    """The report of one family, and its oracle failures."""
    run, oracle, sizes, words = FAMILIES[family]
    rows, failures = [], []
    for n in sizes[:1] if smallest else sizes:
        row, chi = run(n, repeat)
        got = {**row, "chi_L": chi}
        failures += [f"{family} n={n}: {key} = {got[key]}, oracle {want}"
                     for key, want in oracle(n).items() if got[key] != want]
        rows.append({"n": n, **row, "chi_L": str(chi)})
    report = {"oracle": words, "sizes": rows}
    if len(rows) > 1:
        timed = [key[:-2] for key in rows[0] if key.endswith("_s")]
        report["slope"] = {t: slope(rows, "n", f"{t}_s") for t in timed}
        report["slope_over_entries"] = {t: slope(rows, "entries", f"{t}_s") for t in timed}
    return report, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per size; the best is kept")
    parser.add_argument("--smallest", action="store_true", help="the smallest size only")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    out = {"repeat": args.repeat, "python": platform.python_version(), "families": {}}
    failures = []
    for family in FAMILIES:
        out["families"][family], failed = measure(family, args.repeat, args.smallest)
        failures += failed
    out["ok"], out["failures"] = not failures, failures
    print(json.dumps(out, indent=2))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
