"""JSON manifests: one envelope, one payload schema per kind.

    {"schema": 1, "kind": "category" | "group" | "diagram" | "pseudo_diagram"
                        | "action" | "complex" | "spectrum",
     "payload": {...}}

All numbers that can be non-integral are strings "p/q"; integers stay JSON
integers.  Serialization is deterministic: objects and morphisms in the
value's order, a category's ``compose`` entries in name order (g, then f),
and every key sorted by the writer.  ``parse(serialize(x))`` rebuilds an
identical structure for every kind.  ``_dumps`` writes every manifest file
and every CLI ``--json`` report.  The payload builders leave each category
in a payload as the category itself, which ``_dumps`` writes straight from
its integer rows (``_write_category``); ``serialize`` and
``category_payload`` give plain JSON data, each category expanded to its
payload (``_plain``).

One load checks each repeated table once.  A vertex category or a local
group equal to one checked earlier in the same manifest shares that check's
result under its own name (``_category_once``, ``_group_once``), and an edge
functor or a structure homomorphism whose map equals that of the first one
checked between the same two tables is not checked again
(``_functor_from_payload``, ``complex_from_payload``).  Nothing is kept from
one load to the next.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import getitem
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import ValidationError, _trusted
from .fincat import CatFunctor, FinCat, _Rows, validate
from .groups import FinGroup, GroupHom, _require_list
from .groupact import ComplexOfGroups, ScwolAction, validate_action
from .hocolim import CellSpectrum, PseudoDiagram, StrictDiagram

SCHEMA_VERSION = 1


class BadManifest(ValidationError):
    pass


def render_rational(value) -> str:
    return str(Fraction(value))


def parse_rational(raw) -> Fraction:
    return Fraction(str(raw))


# -- category -------------------------------------------------------------------


def category_payload(cat: FinCat) -> dict:
    """The payload of ``cat`` as plain data, read off its integer rows
    (``_ends``), so it makes none of the name fields of a store or a
    Grothendieck total but a total's object names.  Each entry is a fresh
    list, which a caller may edit, made in the order it is listed
    (``_compose_entries``).  The writer does not build it: it writes a
    category straight from its rows (``_write_category``)."""
    ends = cat._ends
    names, objs = ends.names, cat.objects
    named = names.__getitem__
    order, counts, fs, gfs = _compose_entries(ends)
    gs = chain.from_iterable(map(repeat, map(named, order), counts))
    return {
        "name": cat.name,
        "objects": list(objs),
        "morphisms": [{"id": m, "source": objs[x], "target": objs[y]}
                      for m, x, y in zip(names, ends.src, ends.tgt)],
        "identity": {x: names[e] for x, e in zip(objs, ends.ident)},
        "compose": list(map(list, zip(gs, map(named, fs), map(named, gfs)))),
    }


def _compose_entries(ends: _Rows) -> tuple[list[int], list[int], list[int], Iterator[int]]:
    """The ``compose`` entries of the table whose rows are ``ends``
    (``fincat._Rows``), by index, in the order of ``sorted([g, f, gf] for
    (g, f), gf in table.items())``: the morphisms g in name order, the
    number of entries of each, the f of every entry, and an iterator over
    their g o f.

    Lists compare item by item and the names are distinct, so two entries
    are ordered by the names of their g and, for one g, of their f; each
    pair (g, f) has one entry, so gf is never compared.  The f of the
    entries of g are the morphisms into s(g), in name order, filed once per
    object, and g o f is ``rows[f][pos[g]]``.  Every step is one ``map``
    over the morphisms or over all the cells."""
    names, src, tgt, rows, pos = ends.names, ends.src, ends.tgt, ends.rows, ends.pos
    order = sorted(range(len(names)), key=names.__getitem__)
    into: list[list[int]] = [[] for _ in ends.ident]
    deque(map(list.append, map(into.__getitem__, map(tgt.__getitem__, order)), order), 0)
    firsts = list(map(into.__getitem__, map(src.__getitem__, order)))
    counts = list(map(len, firsts))
    fs = list(chain.from_iterable(firsts))
    cells = chain.from_iterable(map(repeat, map(pos.__getitem__, order), counts))
    return order, counts, fs, map(getitem, map(rows.__getitem__, fs), cells)


def category_from_payload(payload: Mapping, name: str = "C") -> FinCat:
    return validate(payload, name=name)


# -- repeated tables in one manifest ---------------------------------------------


def _str_names(values: Iterable) -> bool:
    """Whether every one of ``values`` is a str.  Only a payload whose names
    all are may stand for its equal copies: ``1 == 1.0 == True``, yet the
    ``str`` of each, which names it, differs."""
    return {*map(type, values)} <= {str}


def _same_table(raw: Mapping, first: Mapping, fields: tuple[str, ...]) -> bool:
    """Whether the payload ``raw`` equals ``first`` in ``fields``: the one
    full comparison a payload makes with an earlier one."""
    return all(raw.get(f) == first.get(f) for f in fields)


def _once(raw, key, seen: dict, fields: tuple[str, ...], str_names: Callable[[Any], bool],
          check: Callable[[], Any], share: Callable[[Any], Any]):
    """``check()``, the checked value of the payload ``raw``, or, when an
    earlier payload of this load under the same cheap ``key`` equals ``raw``
    in ``fields`` and has only str names, ``share`` of that payload's value.
    ``seen`` holds the first payload checked under each key (a ``None`` key
    stores nothing), its value and, once a later payload meets it, whether
    ``str_names`` holds of it: a payload whose tables never repeat pays only
    for its key.  A JSON decoder makes only exact lists, dicts and strs, on
    which ``==`` is plain equality."""
    first = seen.get(key)
    if first is not None:
        if first[2] is None:
            first[2] = str_names(first[0])
        if first[2] and _same_table(raw, first[0], fields):
            return share(first[1])
    value = check()
    if key is not None:
        seen.setdefault(key, [raw, value, None])
    return value


_CATEGORY_FIELDS = ("objects", "morphisms", "identity", "compose")


def _category_names(raw: Mapping) -> bool:
    """Whether every name in the checked category payload ``raw`` is a str."""
    mors, identity = raw["morphisms"], raw["identity"]
    return type(identity) is dict and {*map(type, mors)} <= {dict} and _str_names(chain(
        chain.from_iterable((m["id"], m["source"], m["target"]) for m in mors),
        identity, identity.values(), chain.from_iterable(raw.get("compose", []))))


def _category_once(raw, name: str, seen: dict) -> FinCat:
    """``category_from_payload(raw, name)``, checked once per table in one
    load (``_once``), keyed by the object names and the numbers of
    morphisms and entries.  A later payload equal to a checked one in every
    field but ``name`` would be read by ``validate`` into the same rows, so
    it becomes a new FinCat on those rows with its own name and identity
    map."""
    key = None
    if type(raw) is dict:
        objs, mors, entries = raw.get("objects"), raw.get("morphisms"), raw.get("compose", [])
        if type(objs) is list and type(mors) is list and type(entries) is list \
                and _str_names(objs):
            key = tuple(objs), len(mors), len(entries)
    return _once(raw, key, seen, _CATEGORY_FIELDS, _category_names,
                 lambda: category_from_payload(raw, name),
                 lambda cat: _trusted(FinCat, name=str(raw.get("name", name)),
                                      objects=cat.objects, identity=dict(raw["identity"]),
                                      _ends=cat._ends, _directly_finite=cat._directly_finite))


# -- group ----------------------------------------------------------------------


def group_payload(group: FinGroup) -> dict:
    return {
        "name": group.name,
        "elements": list(group.labels),
        "table": [[group.labels[v] for v in row] for row in group.table],
        "identity": group.identity,
    }


_GROUP_FIELDS = ("elements", "table", "identity")


def _group_names(raw: Mapping) -> bool:
    """Whether the identity and every cell of the checked group payload
    ``raw`` are str (or the identity is left out)."""
    return type(raw.get("identity")) in (str, type(None)) and \
        _str_names(chain.from_iterable(raw["table"]))


def _group_once(raw, seen: dict) -> FinGroup:
    """``group_from_payload(raw)``, checked once per table in one load
    (``_once``), keyed by the elements and the number of rows: a payload
    equal in ``elements``, ``table`` and ``identity`` to a checked one gives
    a group with its own name that shares the checked group's index,
    identity, inverses and generators."""
    key = None
    if type(raw) is dict:
        elems, table = raw.get("elements"), raw.get("table")
        if type(elems) is list and type(table) is list and _str_names(elems):
            key = tuple(elems), len(table)
    return _once(raw, key, seen, _GROUP_FIELDS, _group_names, lambda: group_from_payload(raw),
                 lambda g: _trusted(FinGroup, labels=g.labels, table=g.table,
                                    name=str(raw.get("name", "G")), _index=g._index,
                                    _identity=g._identity, _inverse=g._inverse, _gens=g._gens))


def group_from_payload(payload: Mapping) -> FinGroup:
    try:
        labels = tuple(str(x) for x in payload["elements"])
        pos = {lab: i for i, lab in enumerate(labels)}
        table = tuple(tuple(pos[str(v)] for v in row) for row in payload["table"])
        _require_list(payload["elements"], "elements")
        _require_list(payload["table"], "table")
        for k, row in enumerate(payload["table"]):
            _require_list(row, f"table row {k}")
    except (KeyError, TypeError) as exc:
        raise BadManifest(f"malformed group payload ({exc})",
                          witness={"kind": "group", "error": str(exc)}) from exc
    group = FinGroup(labels, table, name=str(payload.get("name", "G")))
    declared = payload.get("identity")
    if declared is not None and str(declared) != group.identity:
        raise BadManifest(
            f"declared identity {declared!r} is not the identity of the table",
            witness={"identity": declared, "table_identity": group.identity},
        )
    return group


# -- functors inside diagram payloads ----------------------------------------------


def _functor_payload(fun: CatFunctor) -> dict:
    return {
        "objects": {x: fun.obj_map[x] for x in fun.source.objects},
        "morphisms": {m: fun.mor_map[m] for m in fun.source.morphism_names()},
    }


def _str_map(raw: Mapping) -> dict[str, str]:
    """``raw`` with every key and value read as a str: ``raw`` itself when
    it is a dict of str to str, as a JSON manifest gives, else a copy."""
    if type(raw) is dict and all(type(k) is str and type(v) is str for k, v in raw.items()):
        return raw
    return {str(k): str(v) for k, v in raw.items()}


def _entries(raw, what: str) -> list:
    """``raw``, the part ``what`` of a manifest, once it and each of its
    entries are lists: a string or object would be read item by item."""
    _require_list(raw, what)
    for k, entry in enumerate(raw):
        _require_list(entry, f"{what} entry {k}")
    return raw


def _functor_from_payload(payload: Mapping, src: FinCat, tgt: FinCat, edge: str,
                          checked: dict) -> CatFunctor:
    """The functor along index morphism ``edge``.  CatFunctor ignores keys
    that name nothing in ``src``; a manifest may not carry them.  Its check
    reads only the rows of ``src`` and ``tgt`` and the maps, so ``checked``
    holds the first functor checked in this load between each (source rows,
    target rows), and a later one with equal maps is built unchecked and
    shares its arrays."""
    maps = _str_map(payload["objects"]), _str_map(payload["morphisms"])
    pair = src._ends, tgt._ends
    if (first := checked.get(pair)) is not None and (first.obj_map, first.mor_map) == maps:
        fun = _trusted(CatFunctor, source=src, target=tgt, obj_map=maps[0], mor_map=maps[1],
                       _arrays=first._arrays)
    else:
        fun = CatFunctor(src, tgt, *maps)
        checked.setdefault(pair, fun)
    # CatFunctor requires every object and morphism, so a longer map has a stray key
    if len(fun.obj_map) != len(src.objects):
        x = next(x for x in fun.obj_map if not src.has_object(x))
        raise BadManifest(f"edge {edge!r}: object map key {x!r} is not an object of {src.name}",
                          witness={"edge": edge, "object": x})
    if len(fun.mor_map) != len(src._ends.src):
        names = set(src.morphism_names())
        m = next(m for m in fun.mor_map if m not in names)
        raise BadManifest(f"edge {edge!r}: morphism map key {m!r} is not a morphism of {src.name}",
                          witness={"edge": edge, "morphism": m})
    return fun


def _diagram_payload(d: StrictDiagram | PseudoDiagram) -> dict:
    """Index, vertices and edges: a strict payload, and the core of a pseudo one."""
    return {
        "index": d.index,
        "vertices": {i: d.vertex[i] for i in d.index.objects},
        "edges": {m: _functor_payload(d.edge[m]) for m in d.index.morphism_names()},
    }


def _diagram_parts(payload: Mapping) -> tuple[FinCat, dict, dict]:
    """Parse index, vertices and edges, naming a missing or stray vertex or
    edge."""
    index, seen = category_from_payload(payload["index"], name="index"), {}
    vertex = {
        str(i): _category_once(p, f"vertex[{i}]", seen) for i, p in payload["vertices"].items()
    }
    for i in index.objects:
        if i not in vertex:
            raise BadManifest(f"no vertex category for index object {i!r}", witness={"object": i})
    if len(vertex) != len(index.objects):
        i = next(i for i in vertex if not index.has_object(i))
        raise BadManifest(f"vertex category for non-index object {i!r}", witness={"object": i})
    edges, edge, checked = payload["edges"], {}, {}
    for m, x, y in index._arrows():
        if m not in edges:
            raise BadManifest(f"no edge functor for morphism {m!r}", witness={"morphism": m})
        edge[m] = _functor_from_payload(edges[m], vertex[x], vertex[y], m, checked)
    if len(edges) != len(edge):
        m = next(m for m in edges if m not in edge)
        raise BadManifest(f"edge functor for non-index morphism {m!r}", witness={"morphism": m})
    return index, vertex, edge


def diagram_from_payload(payload: Mapping) -> StrictDiagram:
    return StrictDiagram(*_diagram_parts(payload))


def _pseudo_diagram_payload(d: PseudoDiagram) -> dict:
    return {
        **_diagram_payload(d),
        "comp": sorted(
            [v, u, {c: components[c] for c in sorted(components)}]
            for (v, u), components in d.comp.items()
        ),
        "unit": {
            i: {c: d.unit[i][c] for c in sorted(d.unit[i])} for i in d.index.objects
        },
    }


def pseudo_diagram_from_payload(payload: Mapping) -> PseudoDiagram:
    index, vertex, edge = _diagram_parts(payload)
    comp, r = {}, index._ends
    at, src, tgt = r.index, r.src, r.tgt
    for v, u, components in _entries(payload.get("comp", []), "comp"):
        v, u = str(v), str(u)
        # composable read off the endpoints: the index's table has every such pair
        if u not in at or v not in at or tgt[at[u]] != src[at[v]]:
            raise BadManifest(f"comp entry for non-composable pair ({v!r}, {u!r})",
                              witness={"pair": (v, u)})
        comp[(v, u)] = _str_map(components)
    unit = {}
    for i, components in payload.get("unit", {}).items():
        i = str(i)
        if not index.has_object(i):
            raise BadManifest(f"unit entry for non-index object {i!r}", witness={"object": i})
        unit[i] = _str_map(components)
    return PseudoDiagram(index, vertex, edge, comp, unit)


# -- actions ------------------------------------------------------------------------


def _action_payload(action: ScwolAction) -> dict:
    """The action's tables, written off its arrays in space order."""
    return {
        "group": group_payload(action.group),
        "scwol": action.space,
        "object_action": action._tables(0),
        "morphism_action": action._tables(1),
    }


def action_from_payload(payload: Mapping) -> ScwolAction:
    group = group_from_payload(payload["group"])
    space = category_from_payload(payload["scwol"], name="scwol")
    return validate_action(payload, group, space)


# -- complexes of groups ---------------------------------------------------------------


def _complex_payload(cplx: ComplexOfGroups) -> dict:
    base = cplx.base
    names, ids = base.morphism_names(), set(base._ends.ident)
    units = {names[e] for e in ids}
    return {
        "base": base,
        "local": {x: group_payload(cplx.local[x]) for x in base.objects},
        "homs": {
            names[m]: {a: cplx.homs[names[m]](a) for a in cplx.local[base.objects[x]].labels}
            for m, x in enumerate(base._ends.src)
            if m not in ids
        },
        "twists": sorted(
            [b, a, g] for (b, a), g in cplx.twists.items() if a not in units and b not in units
        ),
    }


def complex_from_payload(payload: Mapping) -> ComplexOfGroups:
    base, seen = category_from_payload(payload["base"], name="base"), {}
    local = {str(x): _group_once(p, seen) for x, p in payload["local"].items()}
    for x in base.objects:
        if x not in local:
            raise BadManifest(f"no local group for object {x!r}", witness={"object": x})
    # a homomorphism's check reads the two tables and the map, so a map
    # equal to the first one checked between two tables is not checked
    # again: a group keeps the index of the group whose check it shares
    # (``_group_once``)
    homs, ids, checked = {}, set(base.identity.values()), {}
    for m, x, y in base._arrows():
        if m in ids:
            homs[m] = GroupHom.identity_hom(local[x])
        else:
            raw = payload["homs"].get(m)
            if raw is None:
                raise BadManifest(f"no structure homomorphism for {m!r}", witness={"morphism": m})
            mapping, s, t = _str_map(raw), local[x], local[y]
            pair = id(s._index), id(t._index)
            if checked.get(pair) == mapping:
                homs[m] = _trusted(GroupHom, source=s, target=t, mapping=mapping)
            else:
                homs[m] = GroupHom(s, t, mapping)
                checked.setdefault(pair, mapping)
    twists = {}
    for b, a, g in _entries(payload.get("twists", []), "twists"):
        twists[(str(b), str(a))] = str(g)
    # the composable pairs in the table's order, read off the rows
    r = base._ends
    names, units = r.names, set(r.ident)
    for bi, ai in r.pairs():
        b, a = names[bi], names[ai]
        if (b, a) not in twists:
            if ai in units or bi in units:
                twists[(b, a)] = local[base.objects[r.tgt[bi]]].identity
            else:
                raise BadManifest(f"no twist for composable pair ({b!r}, {a!r})",
                                  witness={"pair": (b, a)})
    cplx = ComplexOfGroups(base, local, homs, twists)
    # every base object has a local group, so a longer table has a stray key
    if len(local) != len(base.objects):
        x = next(x for x in local if not base.has_object(x))
        raise BadManifest(f"local group for non-base object {x!r}", witness={"object": x})
    for m in payload.get("homs", {}):
        if m not in homs:
            raise BadManifest(f"structure homomorphism for non-base morphism {m!r}",
                              witness={"morphism": m})
    return cplx


# -- spectra -----------------------------------------------------------------------------


def _spectrum_payload(spec: CellSpectrum) -> dict:
    return {
        "index": spec.index,
        "cells": {i: list(spec.cells[i]) for i in sorted(spec.cells)},
    }


def spectrum_from_payload(payload: Mapping) -> CellSpectrum:
    """The index category and, per object, a JSON list of integer cell
    counts; a float, a bool or a string is no count."""
    index = category_from_payload(payload["index"], name="index")
    cells = {}
    for i, vec in payload["cells"].items():
        if type(vec) is not list or any(type(v) is not int for v in vec):
            raise BadManifest(
                f"malformed spectrum payload (cell counts at {i!r} must be a list of integers)",
                witness={"kind": "spectrum", "object": str(i)},
            )
        cells[str(i)] = tuple(vec)
    return CellSpectrum(index, cells)


# -- envelope ---------------------------------------------------------------------------


# kind -> (payload builder, parser); a builder leaves each category in its
# payload as the category itself, which ``_dumps`` writes from its rows
_CODECS = {
    "category": (lambda cat: cat, category_from_payload),
    "group": (group_payload, group_from_payload),
    "diagram": (_diagram_payload, diagram_from_payload),
    "pseudo_diagram": (_pseudo_diagram_payload, pseudo_diagram_from_payload),
    "action": (_action_payload, action_from_payload),
    "complex": (_complex_payload, complex_from_payload),
    "spectrum": (_spectrum_payload, spectrum_from_payload),
}
KINDS = tuple(_CODECS)


def _manifest(kind: str, value) -> dict:
    """The manifest of ``value``, with each category in it left as the
    category: what ``dump_file`` and ``eulcat --json validate`` write."""
    if kind not in KINDS:
        raise BadManifest(f"unknown manifest kind {kind!r}", witness={"kind": kind})
    return {"schema": SCHEMA_VERSION, "kind": kind, "payload": _CODECS[kind][0](value)}


def serialize(kind: str, value) -> dict:
    """The manifest of ``value`` as plain JSON data, each category expanded
    to its ``category_payload``."""
    return _plain(_manifest(kind, value))


def _plain(value):
    """``value`` with every category in its dicts, lists and tuples replaced
    by its payload."""
    t = type(value)
    if t is dict:
        return {k: _plain(v) for k, v in value.items()}
    if t is list or t is tuple:
        return t(map(_plain, value))
    return _expanded(value) if isinstance(value, FinCat) else value


def _expanded(value) -> dict:
    """The payload of a category ``value`` inside a value given as plain
    data: the one place the library builds ``category_payload``.  The
    ``json.dumps`` fallback of ``_dumps`` calls it (as ``default``) on each
    value it cannot write, where anything but a category raises json.dumps's
    own TypeError."""
    if not isinstance(value, FinCat):
        return json.JSONEncoder().default(value)
    return category_payload(value)


def parse(manifest: Mapping) -> tuple[str, Any]:
    if not isinstance(manifest, Mapping):
        raise BadManifest("manifest must be a JSON object",
                          witness={"type": type(manifest).__name__})
    version = manifest.get("schema")
    if version != SCHEMA_VERSION:
        raise BadManifest(f"unrecognized schema version {version!r}", witness={"schema": version})
    kind = manifest.get("kind")
    if kind not in KINDS:
        raise BadManifest(f"unknown kind {kind!r}; expected one of {KINDS}", witness={"kind": kind})
    payload = manifest.get("payload")
    if payload is None:
        raise BadManifest("manifest has no payload", witness={"key": "payload"})
    try:
        return kind, _CODECS[kind][1](payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BadManifest(f"malformed {kind} payload ({exc})",
                          witness={"kind": kind, "error": str(exc)}) from exc


def load_file(path: str) -> tuple[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadManifest(
                f"{path}: not valid JSON ({exc})",
                witness={"path": path, "line": exc.lineno, "column": exc.colno},
            ) from exc
        except UnicodeDecodeError as exc:
            raise BadManifest(f"{path}: not UTF-8 text ({exc})",
                              witness={"path": path, "byte": exc.start}) from exc
        except RecursionError:
            raise BadManifest(f"{path}: JSON nested too deeply to decode",
                              witness={"path": path}) from None
    return parse(data)


# -- text ----------------------------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses
_SEQUENCES = {list, tuple}


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, with
    each category in ``value`` in place of its ``category_payload``.

    CPython's C encoder does not indent, so json.dumps runs its pure-Python
    encoder here.  This writer covers dicts with str keys, lists, tuples,
    str, int, bool and None, and writes a category from its rows
    (``_write_category``).  Any other value (a float, a non-str key or
    name, a subclass, an unserialisable object, a cycle) raises TypeError or
    RecursionError inside it, and then the whole value goes to json.dumps,
    which expands each category (``_expanded``), so the bytes and the
    errors are json.dumps's own.  (A str subclass in a list of strings is
    escaped as a str, which is what json.dumps does.)
    """
    out: list[str] = []
    try:
        _write(value, "\n", out)
    except (TypeError, RecursionError):
        return json.dumps(value, indent=2, sort_keys=True, default=_expanded)
    return "".join(out)


def _write(v, nl: str, out: list[str]) -> None:
    """Append the text of ``v`` to ``out``; ``nl`` is the newline and indent
    of its closing bracket.  Pieces are appended, not returned, so no text is
    copied once per nesting level."""
    t = type(v)
    if t is str:
        out.append(_quote(v))
    elif t is dict:
        if not v:
            out.append("{}")
            return
        ind = nl + "  "
        sep = "{" + ind
        for k in sorted(v):
            x = v[k]
            if type(x) is str:
                out.append(sep + _quote(k) + ": " + _quote(x))
            else:
                out.append(sep + _quote(k) + ": ")
                _write(x, ind, out)
            sep = "," + ind
        out.append(nl + "}")
    elif t is list or t is tuple:
        _write_list(v, nl, out)
    elif t is int:
        out.append(int.__repr__(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, FinCat):
        _write_category(v, nl, out)
    else:
        raise TypeError


def _write_list(v, nl: str, out: list[str]) -> None:
    if not v:
        out.append("[]")
        return
    ind = nl + "  "
    sep = "," + ind
    try:  # a list of strings
        out.append("[" + ind + sep.join(map(_quote, v)) + nl + "]")
        return
    except TypeError:
        pass
    if {*map(type, v)} <= _SEQUENCES and all(v):
        ind2 = ind + "  "
        inner = "," + ind2
        lengths = {*map(len, v)}
        try:  # a list of non-empty string lists, such as a Cayley table or twists
            if len(lengths) == 1:  # of one length k: quote them all in one stream, k at a time
                items = map(inner.join, zip(*[map(_quote, chain.from_iterable(v))] * lengths.pop()))
            else:
                items = [inner.join(map(_quote, x)) for x in v]
            out.append("[" + ind + "[" + ind2 + (ind + "]" + sep + "[" + ind2).join(items)
                       + ind + "]" + nl + "]")
            return
        except TypeError:
            pass
    first = "[" + ind
    for x in v:
        out.append(first)
        _write(x, ind, out)
        first = sep
    out.append(nl + "]")


def _write_category(cat: FinCat, nl: str, out: list[str]) -> None:
    """Append the text of ``category_payload(cat)`` to ``out``, as ``_write``
    would, straight from the rows of ``cat`` (``_ends``): each name is
    quoted once, and each composite is one piece, its quoted f and g o f,
    made in the order of the entries (``_compose_entries``); the pieces of
    one g are joined around its quoted name in one call.  The morphism
    records come from the endpoint arrays, the identity map from ``ident``
    in object-name order.  A name that is no str raises TypeError in
    ``_quote``, as ``_write`` does on a value it does not cover."""
    ends = cat._ends
    objs = cat.objects
    q, qo = list(map(_quote, ends.names)), list(map(_quote, objs))
    ind = nl + "  "
    ind2 = ind + "  "
    ind3 = ind2 + "  "
    sep, sep3, close = "," + ind2, "," + ind3, ind2 + "]"
    qf = [x + sep3 for x in q]  # a piece starts with its quoted f
    order, counts, fs, gfs = _compose_entries(ends)
    pieces = map(str.__add__, map(qf.__getitem__, fs), map(q.__getitem__, gfs))
    compose = []
    for g, n in zip(order, counts):
        if n:
            bucket = list(islice(pieces, n))
            head = "[" + ind3 + qf[g]
            bucket[0] = head + bucket[0]
            bucket[-1] += close
            compose.append((close + sep + head).join(bucket))
    record = "{" + ind3 + '"id": %s' + sep3 + '"source": %s' + sep3 + '"target": %s' + ind2 + "}"
    records = map(record.__mod__, zip(q, map(qo.__getitem__, ends.src),
                                      map(qo.__getitem__, ends.tgt)))
    identity = [_quote(x) + ": " + q[e] for x, e in sorted(zip(objs, ends.ident))]
    out.append("{" + ind + '"compose": ')
    _block("[", compose, ind, "]", out)
    out.append("," + ind + '"identity": ')
    _block("{", identity, ind, "}", out)
    out.append("," + ind + '"morphisms": ')
    _block("[", records, ind, "]", out)
    out.append("," + ind + '"name": ' + _quote(cat.name) + "," + ind + '"objects": ')
    _block("[", qo, ind, "]", out)
    out.append(nl + "}")


def _block(opening: str, items: Iterable[str], nl: str, closing: str, out: list[str]) -> None:
    """Append the text of a list or dict of written ``items`` to ``out``;
    ``nl`` is the newline and indent of its closing bracket."""
    ind = nl + "  "
    body = ("," + ind).join(items)
    out += (opening + ind, body, nl + closing) if body else (opening + closing,)


def dump_file(path: str, kind: str, value) -> None:
    text = _dumps(_manifest(kind, value))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
