"""Finite categories as explicit object/morphism/composition tables.

A FinCat is given by its objects, morphism records, identity map and full
composition table; every question here is answered off integer arrays.  There
is one representation.  Every FinCat keeps its name, its objects, its
identity map and ``_ends`` (``_Ends``: endpoints, identities and inverses by
index), which the structural predicates (``classify``), the hom counts and
the isomorphism classes read.  Its ``_ends`` are the integer rows of its
table (``_Rows``), which the checked constructor fills from a hand-built
table (``zoo``), a builder writes through the one unchecked constructor
``_stored``, or ``validate`` checks in from a manifest; a Grothendieck total
(``hocolim._Total``, the one subclass) keeps its plan instead.  Each name
field (records, lookup tables, the inverse map, the table, and the identity
map where none was given) is made on its first read (``_OnFirstRead``); the
library reads the arrays (``_rows_of``).

Validation checks the ids, endpoints and identity map, the endpoints of
every composite, the identity laws on every morphism and, unless the
category is thin, associativity on every composable triple, so downstream
code may assume a lawful category.  It runs on integer rows (``_Rows``:
one row of composites per morphism, whole rows compared at a time) read in
one pass over the table's entries, the ``compose`` list itself for a
manifest, whose ids are read into the index arrays first (``validate``).
The inverse search reads the same rows (``_inverse_search``), and the
category keeps them as its ``_ends``.  The functor check
(``_check_functor``: a functor is two int arrays, its object and morphism
images) and the naturality check read rows too (``_rows_of``).
Composition and naturality are checked on the rows of a generating set of
morphisms (``groups._check_on_generators``).  Names come back
only to report the first failure, whose ``witness`` holds the offending
names: the walk that locates it reads the entries in table order
(``_Rows.pairs``) or the index arrays, and names only the witness.

Two morphisms x -> w with checked endpoints are equal when Hom(x, w) has one
element.  So on a *thin* category (``_is_thin``: no hom-set has two
elements) associativity and a functor's composition law into it hold once
the endpoints do, and neither is checked there.

All values are immutable after validation; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import eq
from typing import Iterable, Iterator, Mapping, NoReturn, Optional, Sequence

from .errors import ValidationError, _trusted
from .groups import (FinGroup, _check_on_generators, _first_repeat, _generating_set,
                     _require_list, _unassociative)


class DanglingReference(ValidationError):
    """A table refers to an unknown object/morphism, or pairs non-composable morphisms."""


class IncompleteCompositionTable(ValidationError):
    """A composable pair is missing, or a composite has the wrong endpoints."""


class BrokenIdentity(ValidationError):
    """Identity assignment or identity laws fail."""


class NonAssociative(ValidationError):
    """Associativity fails on some composable triple."""


class NotScwol(ValidationError):
    """Operation requires a small category without loops."""


class NotGroupoid(ValidationError):
    """Operation requires every morphism to be invertible."""


class UnknownObject(ValidationError):
    """Named object does not belong to the category."""


@dataclass(frozen=True)
class Morphism:
    name: str
    source: str
    target: str


class _OnFirstRead:
    """A name field of a FinCat, a functor's map or an action's tables
    (``groupact.ScwolAction``), made from its integer arrays on its first
    read by its owner (``_make``), which stores it on the instance; that
    shadows this non-data descriptor, so later reads find it there.  A ``hocolim._TotalRows`` makes its indexes the same way.
    On the class it has no value, so a dataclass field that is one has no
    default."""

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, cat, owner=None):
        if cat is None:
            raise AttributeError(self.name)
        cat._make(self.name)
        return cat.__dict__[self.name]


@dataclass(frozen=True, eq=False)
class FinCat:
    """A finite category: ordered objects, morphism records, identity map,
    and a total composition table on composable pairs.

    ``composition[(g, f)]`` is the name of ``g o f`` (apply f first), defined
    exactly when ``target(f) == source(g)``.  This constructor is the checked
    boundary for hand-built categories: it takes names, checks every law on
    the integer rows of its table (``_Rows``, numbered by the indexes of its
    record check) and keeps only those rows, as ``_ends`` (endpoints,
    identities and inverses by index), with its name, its objects and the
    identity map it was given.  Every other category is one of these too,
    written unchecked by a builder (``_stored``) or checked in from a
    manifest (``validate``); a Grothendieck total (``hocolim._Total``) keeps
    its plan instead of rows.  The records, the table (in entry order), the
    lookup tables of ``_headers`` and the inverse map are views
    (``_OnFirstRead``), made on their first read with the values and order
    they were given in; the accessors but ``hom``, ``morphisms_from``,
    ``is_invertible`` and ``inverse`` read the rows and make none.  Direct
    finiteness and the inverses come from the inverse search of the rows
    (``_inverse_search``), or from a builder's proof.
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...] = _OnFirstRead()
    identity: Mapping[str, str] = _OnFirstRead()
    composition: Mapping[tuple[str, str], str] = _OnFirstRead()
    name: str = "C"

    _directly_finite: bool = field(init=False, repr=False)
    _ends: _Ends = field(init=False, repr=False)
    _mor = _OnFirstRead()
    _hom = _OnFirstRead()
    _by_source = _OnFirstRead()
    _invertible = _OnFirstRead()

    def __post_init__(self, *_):
        # perfbench/tracing.py wraps this method and passes it one flag more
        names, index, obj_index = self._check_records()
        mors = self.morphisms
        src, tgt = [obj_index[m.source] for m in mors], [obj_index[m.target] for m in mors]
        ident = [index[self.identity[x]] for x in self.objects]
        rows = _Rows(obj_index, names, index, src, tgt, ident)
        rows.check_entries(((g, f, gf) for (g, f), gf in self.composition.items()), self.name)
        rows.check_laws(self.name)
        rows.inv, directly_finite = _inverse_search(rows.rows, src, tgt, ident)
        fields = self.__dict__
        del fields["morphisms"], fields["composition"]  # views from here on
        fields.update(_directly_finite=directly_finite, _ends=rows)

    def _check_records(self) -> tuple[list, dict, dict]:
        """Check the object and morphism ids, the endpoints and the identity
        map on their indexes.  Return the morphism names, their index and
        the object index."""
        objects, morphisms = self.objects, self.morphisms
        obj_index = {x: i for i, x in enumerate(objects)}
        if len(obj_index) != len(objects):
            dup = _first_repeat(objects)
            raise DanglingReference(f"{self.name}: duplicate object ids", witness={"object": dup})
        names = [m.name for m in morphisms]
        index = {m: i for i, m in enumerate(names)}
        if len(index) != len(names):
            dup = sorted(n for n, k in Counter(names).items() if k > 1)
            raise DanglingReference(
                f"{self.name}: duplicate morphism ids {dup}", witness={"morphism": dup[0]}
            )
        for m in morphisms:
            if m.source not in obj_index or m.target not in obj_index:
                raise DanglingReference(
                    f"{self.name}: morphism {m.name!r} has unknown endpoint "
                    f"{m.source!r} -> {m.target!r}",
                    witness={"morphism": m.name},
                )

        identity = self.identity
        for x in objects:
            if x not in identity:
                raise BrokenIdentity(
                    f"{self.name}: object {x!r} has no identity morphism", witness={"object": x}
                )
            e = identity[x]
            if e not in index:
                raise DanglingReference(
                    f"{self.name}: identity {e!r} of {x!r} is unknown", witness={"object": x}
                )
            m = morphisms[index[e]]
            if m.source != x or m.target != x:
                raise BrokenIdentity(
                    f"{self.name}: identity {e!r} is not an endomorphism of {x!r}",
                    witness={"morphism": e},
                )
        for x in identity:
            if x not in obj_index:
                raise DanglingReference(
                    f"{self.name}: identity table names unknown object {x!r}", witness={"object": x}
                )
        return names, index, obj_index

    def _make(self, attr: str) -> None:
        """Store the name field ``attr`` on the instance: the table, the
        identity or inverse map, or else the records with every lookup
        table."""
        fields, rows = self.__dict__, self._ends
        names, objs = rows.names, self.objects
        if attr == "composition":
            fields[attr] = rows.table()
        elif attr == "identity":
            fields[attr] = {x: names[e] for x, e in zip(objs, rows.ident)}
        elif attr == "_invertible":
            fields[attr] = {names[m]: names[g] for m, g in rows.inv.items()}
        else:
            mors = tuple(map(Morphism, names, [objs[x] for x in rows.src],
                             [objs[y] for y in rows.tgt]))
            fields.update(_headers(objs, mors), morphisms=mors)

    # -- accessors ----------------------------------------------------------

    def _named(self) -> _Rows:
        """The rows the name accessors read: ``_ends``, or a total's own."""
        return self._ends

    def source(self, m: str) -> str:
        r = self._named()
        return self.objects[r.src[r.index[m]]]

    def target(self, m: str) -> str:
        r = self._named()
        return self.objects[r.tgt[r.index[m]]]

    def compose(self, g: str, f: str) -> str:
        r = self._named()
        return r.names[r.rows[r.index[f]][r.index[g]]]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def morphisms_from(self, x: str) -> tuple[str, ...]:
        return self._by_source[x]

    def is_identity(self, m: str) -> bool:
        r = self._named()
        i = r.index[m]
        return r.ident[r.src[i]] == i

    def is_invertible(self, m: str) -> bool:
        return m in self._invertible

    def inverse(self, m: str) -> str:
        return self._invertible[m]

    def morphism_names(self) -> tuple[str, ...]:
        return tuple(self._named().names)

    def has_object(self, x: str) -> bool:
        return x in self._named().objects

    def _arrows(self) -> Iterable[tuple[str, str, str]]:
        """The name, source and target of each morphism, in order."""
        objs, rows = self.objects, self._named()
        return zip(rows.names, map(objs.__getitem__, rows.src), map(objs.__getitem__, rows.tgt))

    def require_object(self, x: str) -> None:
        if not self.has_object(x):
            raise UnknownObject(f"{self.name} has no object {x!r}", witness={"object": x})

    def __len__(self) -> int:
        return len(self._ends.ident)


class _Ends:
    """The int arrays every FinCat keeps as ``_ends``: ``src`` and ``tgt``
    (object indices of each morphism's endpoints), ``ident`` (the identity
    of each object, by morphism index) and ``inv`` (each invertible
    morphism to its inverse, in morphism order).  Every FinCat but a
    Grothendieck total keeps a ``_Rows``, which has the same four.  The structural
    predicates, the hom counts and the isomorphism classes read only what
    the methods give."""

    __slots__ = ("src", "tgt", "ident", "inv")

    def __init__(self, src: list[int], tgt: list[int], ident: list[int], inv: dict[int, int]):
        self.src, self.tgt, self.ident, self.inv = src, tgt, ident, inv

    def endomorphisms(self) -> int:
        """The number of endomorphisms."""
        return sum(map(eq, self.src, self.tgt))

    def census(self) -> tuple[int, int, int]:
        """The number of morphisms, of invertible ones and of invertible
        endomorphisms."""
        src, tgt, inv = self.src, self.tgt, self.inv
        return len(src), len(inv), len([m for m in inv if src[m] == tgt[m]])

    def is_thin(self) -> bool:
        """Whether no two morphisms share their endpoints."""
        return len(set(zip(self.src, self.tgt))) == len(self.src)

    def hom_rows(self, transpose: bool = False) -> list[dict[int, int]]:
        """Sparse rows {j: |Hom(x_i, x_j)|} of the non-empty hom-sets (or of
        the transpose), each in the order of the first morphism of each."""
        rows: list[dict[int, int]] = [{} for _ in self.ident]
        for i, j in zip(self.tgt, self.src) if transpose else zip(self.src, self.tgt):
            row = rows[i]
            row[j] = row.get(j, 0) + 1
        return rows

    def invertible_ends(self) -> Iterable[tuple[int, int]]:
        """The endpoints (i, j) of each invertible morphism."""
        src, tgt, inv = self.src, self.tgt, self.inv
        return zip(map(src.__getitem__, inv), map(tgt.__getitem__, inv))


class _Rows(_Ends):
    """The composition table of a FinCat on morphism indices: ``rows[f][g]``
    is the index of ``g o f``.  ``objects`` numbers the objects, ``names``
    names the morphisms and ``index`` numbers them, and ``src``, ``tgt``
    and ``ident`` give each morphism's endpoints and each object's identity
    by index.

    Row f holds its cells in the order of the entries that filled it, and
    ``order`` the f of each entry, so ``pairs`` and ``table`` give the
    entries back in order.  A builder writes them (``_stored``), or
    ``check_entries`` checks each entry of a table as it fills them.
    ``check_laws`` and the inverse search read the rows.  Names come back
    only to report the first failure, whose ``witness`` holds the offending
    names.
    """

    __slots__ = ("names", "index", "objects", "rows", "order", "gens")

    def __init__(self, objects: dict, names: Sequence[str], index: dict, src: list[int],
                 tgt: list[int], ident: list[int], rows: Optional[list] = None,
                 order: Optional[list[int]] = None):
        self.src, self.tgt, self.ident, self.inv = src, tgt, ident, None
        self.objects, self.names, self.index = objects, names, index
        self.rows = [{} for _ in names] if rows is None else rows
        self.order, self.gens = order, None

    def check_entries(self, entries: Iterable, name: str, numbers: bool = False) -> None:
        """Fill the rows from ``entries``, the triples (g, f, gf) of the
        table of the category ``name`` in order, checking each as it is
        read: known names (with ``numbers``, an id may be a JSON number,
        read as its ``str``), a composable pair, the endpoints of the
        composite."""
        index, src, tgt, rows = self.index, self.src, self.tgt, self.rows
        self.order = order = []
        put = order.append
        for g, f, gf in entries:
            try:
                gi, fi, ci = index[g], index[f], index[gf]
            except (KeyError, TypeError):
                if numbers:
                    g, f, gf = str(g), str(f), str(gf)
                if g not in index or f not in index or gf not in index:
                    raise DanglingReference(
                        f"{name}: composition entry ({g!r}, {f!r}) -> {gf!r} names unknown morphisms",
                        witness={"pair": (g, f)},
                    ) from None
                gi, fi, ci = index[g], index[f], index[gf]
            if tgt[fi] != src[gi]:
                objs = list(self.objects)
                raise DanglingReference(
                    f"{name}: pair ({g!r}, {f!r}) is not composable "
                    f"(target of {f!r} is {objs[tgt[fi]]!r}, source of {g!r} is {objs[src[gi]]!r})",
                    witness={"pair": (g, f)},
                )
            if src[ci] != src[fi] or tgt[ci] != tgt[gi]:
                raise IncompleteCompositionTable(
                    f"{name}: composite {gf!r} of ({g!r}, {f!r}) has wrong endpoints",
                    witness={"pair": (g, f)},
                )
            rows[fi][gi] = ci
            put(fi)

    def out(self) -> list[list[int]]:
        """The morphisms out of each object, by index, in morphism order."""
        out: list[list[int]] = [[] for _ in self.ident]
        for m, x in enumerate(self.src):
            out[x].append(m)
        return out

    def check_laws(self, name: str) -> None:
        """Check completeness, both identity laws, then associativity on every
        composable triple (``groups._unassociative``) unless the category
        ``name`` is thin, where both sides share a one-element hom-set."""
        names, src, tgt, ident, rows = self.names, self.src, self.tgt, self.ident, self.rows
        out = self.out()
        # every key of rows[f] is composable with f, so a short row misses one
        for f, row in enumerate(rows):
            if len(row) != len(out[tgt[f]]):
                g = next(g for g in out[tgt[f]] if g not in row)
                raise IncompleteCompositionTable(
                    f"{name}: missing composite for pair ({names[g]!r}, {names[f]!r})",
                    witness={"pair": (names[g], names[f])},
                )

        for f, row in enumerate(rows):
            if row[ident[tgt[f]]] != f:
                raise BrokenIdentity(
                    f"{name}: id o {names[f]!r} != {names[f]!r}", witness={"morphism": names[f]}
                )
            if rows[ident[src[f]]][f] != f:
                raise BrokenIdentity(
                    f"{name}: {names[f]!r} o id != {names[f]!r}", witness={"morphism": names[f]}
                )

        # both sides of a triple lie in Hom(s(f), t(h)), by the endpoints
        # checked above, so a thin category is associative
        if self.is_thin():
            return
        bad = _unassociative(rows, tgt, ident, out, out)
        if bad is not None:
            f, g, h = map(names.__getitem__, bad)
            raise NonAssociative(f"{name}: h o (g o f) != (h o g) o f for "
                                 f"(h, g, f) = ({h!r}, {g!r}, {f!r})",
                                 witness={"h": h, "g": g, "f": f})

    def generators(self) -> list[int]:
        """``_generating_set`` of the category, found once."""
        if self.gens is None:
            self.gens = _generating_set(self.rows, self.ident, self.src, self.tgt)
        return self.gens

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The pairs (g, f) of checked entries, by index, in entry order:
        row f holds its cells in the order of the entries that filled them."""
        cells = [iter(row) for row in self.rows]
        for f in self.order:
            yield next(cells[f]), f

    def table(self) -> dict[tuple[str, str], str]:
        """The name-keyed table of checked entries, in entry order."""
        names, rows = self.names, self.rows
        return {(names[g], names[f]): names[rows[f][g]] for g, f in self.pairs()}


def _inverse_search(rows: Sequence, src: Sequence[int], tgt: Sequence[int],
                    ident: Sequence[int]) -> tuple[dict[int, int], bool]:
    """The inverses of a category on int rows, where g o m is
    ``rows[m][g]``: the ``inv`` of its ``_ends`` (each invertible m to its
    inverse, in morphism order), and whether no g has g o m = id but
    m o g != id.  The candidates g for m run through Hom(t(m), s(m)) in
    morphism order, and the search stops at an inverse, the only left
    inverse of m.  Only a morphism with a reverse arrow has a candidate.  An
    identity e is its own inverse and has no other left inverse (g o e = g),
    and it is no left inverse of any other m (e o m = m), so it is neither
    searched nor a candidate."""
    reverse = set(zip(tgt, src))
    searched = list(compress(range(len(src)), map(reverse.__contains__, zip(src, tgt))))
    identities = set(ident)
    back: dict[tuple[int, int], list[int]] = {}  # (t(g), s(g)): those g
    for g in searched:
        if g not in identities:
            back.setdefault((tgt[g], src[g]), []).append(g)
    inv: dict[int, int] = {}
    directly_finite = True
    for m in searched:
        if m in identities:
            inv[m] = m
            continue
        row, unit = rows[m], ident[src[m]]
        for g in back[src[m], tgt[m]]:
            if row[g] == unit:
                if rows[g][m] == ident[tgt[m]]:
                    inv[m] = g
                    break
                directly_finite = False
    return inv, directly_finite


def _rows_of(cat: FinCat) -> _Rows:
    """The rows of ``cat``: its ``_ends``, which are rows on every FinCat
    but a Grothendieck total (those a builder wrote, or those a check
    filled), or else rows read in one pass over the plan of a total
    (``hocolim._Total._read_rows``), which are not kept."""
    ends = cat._ends
    return ends if isinstance(ends, _Rows) else cat._read_rows()


def _stored(name: str, objects: Sequence[str], names: Sequence[str], src: list[int],
            tgt: list[int], ident: list[int], entries: Iterable[tuple[int, int, int]],
            inverses: Optional[tuple[dict[int, int], bool]] = None) -> FinCat:
    """The one unchecked constructor: the FinCat of arrays a builder
    writes, lawful by its proof.  ``entries`` are the triples (g, f, g o f)
    by index, in ``composition`` order; ``inverses`` (``inv`` and direct
    finiteness) are lifted from the input, or else searched.  Only the id
    check is left: a builder's names are made from its input's."""
    objects = tuple(objects)
    obj_index, index = {x: i for i, x in enumerate(objects)}, {m: i for i, m in enumerate(names)}
    if len(obj_index) != len(objects) or len(index) != len(names):
        records = tuple(map(Morphism, names, [objects[x] for x in src], [objects[y] for y in tgt]))
        _trusted(FinCat, name=name, objects=objects, morphisms=records)._check_records()  # raises
    r = _Rows(obj_index, names, index, src, tgt, ident, None, [])
    rows, put = r.rows, r.order.append
    for g, f, gf in entries:
        rows[f][g] = gf
        put(f)
    r.inv, directly_finite = inverses or _inverse_search(rows, src, tgt, ident)
    return _trusted(FinCat, name=name, objects=objects, _ends=r, _directly_finite=directly_finite)


def _headers(objects, morphisms) -> dict:
    """The lookup tables ``_mor``, ``_hom`` and ``_by_source`` of a FinCat,
    from morphisms whose endpoints are objects."""
    hom: dict[tuple[str, str], list[str]] = {}
    by_source: dict[str, list[str]] = {x: [] for x in objects}
    for m in morphisms:
        hom.setdefault((m.source, m.target), []).append(m.name)
        by_source[m.source].append(m.name)
    return {
        "_mor": {m.name: m for m in morphisms},
        "_hom": {k: tuple(v) for k, v in hom.items()},
        "_by_source": {k: tuple(v) for k, v in by_source.items()},
    }


def validate(raw: Mapping, name: str = "C") -> FinCat:
    """Build a FinCat from plain data and check every law of it (associativity
    only where some hom-set has two elements; see the module docstring).

    Expected shape (the JSON payload of kind "category"):

        {"objects": [...],
         "morphisms": [{"id":..., "source":..., "target":...}, ...],
         "identity": {object: morphism_id, ...},
         "compose": [[g, f, gf], ...]}

    ``objects``, ``morphisms``, ``compose`` and each of its entries are
    lists, and each pair (g, f) is listed once.  An id may be a JSON number,
    read as its ``str``.  The ids are read into integer arrays and the
    entries into the integer rows of the check, each once (``_load``); the
    result keeps its rows, and makes its records and name-keyed table
    only when they are read.
    """
    try:
        objects = tuple([str(x) for x in raw["objects"]])
        names, sources, targets = [], [], []
        for m in raw["morphisms"]:
            names.append(str(m["id"]))
            sources.append(str(m["source"]))
            targets.append(str(m["target"]))
        identity = {str(k): str(v) for k, v in raw["identity"].items()}
        entries = raw.get("compose", [])
        _require_lists(raw, entries)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        cause = exc
    else:
        try:
            return _load(str(raw.get("name", name)), objects, names, sources, targets, identity,
                         entries)
        except ValueError as exc:  # an entry of other than three names stops the check
            cause = exc
    raise DanglingReference(
        f"{name}: malformed category description ({cause})", witness={"cause": str(cause)}
    ) from cause


def _load(name: str, objects: tuple, names: list, sources: list, targets: list,
          identity: dict, entries: list) -> FinCat:
    """``validate`` after the parse: the ids interned into index arrays,
    checked by whole-array compares, then the entries checked into
    ``_Rows``, and the laws and inverses read off the rows, which the
    category keeps with the manifest's identity map.  Only a manifest
    whose ids, endpoints or identity map fail has records made, for the walk
    of ``FinCat._check_records`` to raise the first fault in its order.  A
    malformed entry, then a pair listed twice, comes before every other
    fault (``_check_listing``)."""
    obj_index = {x: i for i, x in enumerate(objects)}
    index = {m: i for i, m in enumerate(names)}
    try:
        src = [obj_index[x] for x in sources]
        tgt = [obj_index[x] for x in targets]
        ident = [index[identity[x]] for x in objects]
        # every object has an identity, so a longer identity map names another
        lawful = (len(obj_index) == len(objects) and len(index) == len(names)
                  and len(identity) == len(objects)
                  and list(map(src.__getitem__, ident)) == list(map(tgt.__getitem__, ident))
                  == list(range(len(ident))))
    except KeyError:
        lawful = False
    try:
        if not lawful:
            records = tuple(map(Morphism, names, sources, targets))
            _trusted(FinCat, name=name, objects=objects, morphisms=records,
                     identity=identity)._check_records()  # raises, at the first fault
        rows = _Rows(obj_index, names, index, src, tgt, ident)
        rows.check_entries(entries, name, numbers=True)
    except ValidationError:
        _check_listing(name, entries)
        raise
    # each entry filled one cell, so fewer cells means a pair listed twice
    if sum(map(len, rows.rows)) != len(entries):
        _check_listing(name, entries)
    rows.check_laws(name)
    rows.inv, directly_finite = _inverse_search(rows.rows, src, tgt, ident)
    return _trusted(FinCat, name=name, objects=objects, identity=identity, _ends=rows,
                    _directly_finite=directly_finite)


def _check_listing(name: str, entries: list) -> None:
    """Raise at the faults of a manifest's ``compose`` list that are
    reported before every other check: ValueError at the first entry of
    other than three names (``validate`` reports it as malformed), then
    DanglingReference at the first pair (g, f) listed twice."""
    pairs = [(str(g), str(f)) for g, f, _ in entries]
    if len(set(pairs)) != len(pairs):
        pair = _first_repeat(pairs)
        raise DanglingReference(
            f"{name}: pair ({pair[0]!r}, {pair[1]!r}) is listed more than once in compose",
            witness={"pair": pair},
        )


def _require_lists(raw: Mapping, triples) -> None:
    """Raise TypeError unless ``objects``, ``morphisms``, ``compose`` and each
    compose entry of ``raw`` are lists.  An entry that does not unpack into
    three raises its own TypeError or ValueError first."""
    if (type(raw["objects"]) is list and type(raw["morphisms"]) is list
            and type(triples) is list and {*map(type, triples)} <= {list}):
        return
    for _g, _f, _gf in triples:
        pass
    _require_list(raw["objects"], "objects")
    _require_list(raw["morphisms"], "morphisms")
    _require_list(triples, "compose")
    for k, entry in enumerate(triples):
        _require_list(entry, f"compose entry {k}")


# -- functors and natural isomorphisms ---------------------------------------


class NotAFunctor(ValidationError):
    """Object/morphism maps fail functoriality."""


class NotNatural(ValidationError):
    """Components fail naturality or invertibility."""


@dataclass(frozen=True, eq=False)
class CatFunctor:
    """A functor, kept as its int arrays (``_arrays``, see ``_Arrays``); it
    keeps the maps it is given and checks them (``_check_functor``), as
    ``from_arrays`` checks arrays.  Other maps are views (``_OnFirstRead``)."""

    source: FinCat
    target: FinCat
    obj_map: Mapping[str, str] = _OnFirstRead()
    mor_map: Mapping[str, str] = _OnFirstRead()

    _arrays: _Arrays = field(init=False, repr=False)

    def __post_init__(self):
        self.__dict__["_arrays"] = _check_functor(self.source, self.target, self.obj_map,
                                                  self.mor_map)

    @staticmethod
    def from_arrays(source: FinCat, target: FinCat, fo: list[int], fm: list[int]) -> "CatFunctor":
        """The functor with the arrays ``fo`` and ``fm`` (``_Arrays``), checked:
        NotAFunctor at an array of the wrong length, at the first image that
        is no index of ``target``, then at the laws of ``_check_functor``."""
        s, t = _rows_of(source), _rows_of(target)
        for images, keys, n, law in ((fo, source.objects, len(t.ident), "objects"),
                                     (fm, s.names, len(t.src), "morphisms")):
            if len(images) != len(keys):
                _not_a_functor(f"{len(images)} images for {len(keys)} {law}", law, len(images))
            k = next((k for k, i in enumerate(images) if type(i) is not int or not 0 <= i < n), None)
            if k is not None:
                _not_a_functor(f"image of {keys[k]!r} is out of range", law, keys[k])
        _check_functor_arrays(s, t, fo, fm, _is_thin(target))
        return _trusted(CatFunctor, source=source, target=target, _arrays=(fo, fm))

    def _make(self, attr: str) -> None:
        """Store the map ``attr``, read off its array, on the instance."""
        keys, names = (cat.objects if attr == "obj_map" else cat._named().names
                       for cat in (self.source, self.target))
        images = self._arrays[attr == "mor_map"]
        self.__dict__[attr] = dict(zip(keys, map(names.__getitem__, images)))

    def _has_stray_key(self) -> bool:
        """Whether a map it was given has a key naming nothing in its source."""
        (fo, fm), given = self._arrays, self.__dict__
        return len(given.get("obj_map", fo)) != len(fo) or len(given.get("mor_map", fm)) != len(fm)

    def then(self, other: "CatFunctor") -> "CatFunctor":
        """Composite functor self ; other (apply self first), a functor unchecked."""
        if other.source is not self.target:
            raise NotAFunctor(
                "functors are not composable",
                witness={"target": self.target.name, "source": other.source.name},
            )
        return _trusted(CatFunctor, source=self.source, target=other.target,
                        _arrays=_composite_arrays(self._arrays, other._arrays))

    @staticmethod
    def identity_functor(cat: FinCat) -> "CatFunctor":
        """The identity functor, lawful on every category: built unchecked."""
        return _trusted(CatFunctor, source=cat, target=cat, _arrays=_identity_arrays(cat))


# A functor on indices: the object image and the morphism image, by the
# object and morphism order of its source, as indices of its target.
_Arrays = tuple[list[int], list[int]]


def _check_functor(src: FinCat, tgt: FinCat, obj_map: Mapping, mor_map: Mapping) -> _Arrays:
    """Check the laws of a functor ``src`` -> ``tgt`` in order: objects,
    morphisms (an image for each), source/target, identities, composition,
    on its arrays, and return them.  Keys naming nothing in ``src`` are
    ignored.  A failure raises NotAFunctor with witness
    ``{"law": law, "at": x}``, x an object, morphism or pair; the maps are
    read by name again only then, by a walk that raises on maps whose reads
    repeat (a missing key or unhashable image too); the bare ``raise``
    guards maps whose second read differs."""
    s, t = _rows_of(src), _rows_of(tgt)
    try:
        fo = list(map(t.objects.__getitem__, map(obj_map.__getitem__, src.objects)))
        fm = list(map(t.index.__getitem__, map(mor_map.__getitem__, s.names)))
    except (KeyError, TypeError):
        _walk_functor_maps(s, t, tgt.name, obj_map, mor_map)  # raises, at the first fault
        raise
    _check_functor_arrays(s, t, fo, fm, _is_thin(tgt))
    return fo, fm


def _walk_functor_maps(s: _Rows, t: _Rows, tgt: str, obj_map: Mapping, mor_map: Mapping) -> None:
    """Raise NotAFunctor at the first object without an image in the target,
    named ``tgt``, else at the first morphism without one or with wrong
    endpoints, on the rows ``s`` of the source and ``t`` of the target."""
    for x in s.objects:
        if x not in obj_map or obj_map[x] not in t.objects:
            _not_a_functor(f"object map undefined or out of range at {x!r}", "objects", x)
    fo = [t.objects[obj_map[x]] for x in s.objects]
    for m, name in enumerate(s.names):
        if name not in mor_map:
            _not_a_functor(f"morphism map undefined at {name!r}", "morphisms", name)
        k = t.index.get(mor_map[name])
        if k is None:
            _not_a_functor(f"image {mor_map[name]!r} is not a morphism of {tgt}", "morphisms", name)
        if t.src[k] != fo[s.src[m]] or t.tgt[k] != fo[s.tgt[m]]:
            _not_a_functor(f"image of {name!r} has wrong endpoints", "source/target", name)


def _not_a_functor(message: str, law: str, at) -> NoReturn:
    raise NotAFunctor(message, witness={"law": law, "at": at})


def _check_functor_arrays(s: _Rows, t: _Rows, fo: list[int], fm: list[int], thin: bool) -> None:
    """The laws of ``_check_functor`` after the images, on the rows ``s`` of
    its source and ``t`` of its target: source/target, identities, then
    composition.  Composition is not checked into a thin target (``thin``,
    which is ``_is_thin`` of it), where both sides share a hom-set.
    Elsewhere it is checked on the rows of the source's generators
    (``groups._check_on_generators``), row s mapped by ``fm`` against row
    ``fm[s]`` of the target.  A broken row is located among the entries of
    the source in order (``_Rows.pairs``), skipping entries with an identity
    factor, which hold by source/target and identities."""
    image, obj_image, names = fm.__getitem__, fo.__getitem__, s.names
    if list(map(t.src.__getitem__, fm)) != list(map(obj_image, s.src)) or \
            list(map(t.tgt.__getitem__, fm)) != list(map(obj_image, s.tgt)):
        k = next(k for k, i in enumerate(fm)
                 if t.src[i] != fo[s.src[k]] or t.tgt[i] != fo[s.tgt[k]])
        _not_a_functor(f"image of {names[k]!r} has wrong endpoints", "source/target", names[k])
    if list(map(image, s.ident)) != list(map(t.ident.__getitem__, fo)):
        x = next(x for x, e, y in zip(s.objects, s.ident, fo) if fm[e] != t.ident[y])
        _not_a_functor(f"identity of {x!r} not preserved", "identities", x)
    if thin:  # both sides run F(s(f)) -> F(t(g)), by source/target
        return
    s_rows, t_rows = s.rows, t.rows

    def locate() -> NoReturn:
        ids = set(s.ident)
        for g, f in s.pairs():
            if g not in ids and f not in ids and t_rows[fm[f]][fm[g]] != fm[s_rows[f][g]]:
                _not_a_functor(f"composition not preserved on ({names[g]!r}, {names[f]!r})",
                               "composition", (names[g], names[f]))

    _check_on_generators(s, lambda f: list(map(t_rows[fm[f]].__getitem__, map(image, s_rows[f])))
                         == list(map(image, s_rows[f].values())), locate)


def _identity_arrays(cat: FinCat) -> _Arrays:
    """The arrays of the identity functor of ``cat``."""
    return list(range(len(cat))), list(range(len(cat._ends.src)))


def _composite_arrays(first: _Arrays, second: _Arrays) -> _Arrays:
    """The arrays of ``first`` then ``second``."""
    (fo1, fm1), (fo2, fm2) = first, second
    return [fo2[x] for x in fo1], [fm2[m] for m in fm1]


def _check_natural(cat: FinCat, s: _Rows, tgt: FinCat, t: _Rows, f: _Arrays, g: _Arrays,
                   components: Mapping, where: str) -> list[int]:
    """Check that ``components`` (a ``PseudoDiagram`` table) is a natural
    isomorphism F => G, and return the component at each object of ``cat``
    as a morphism index of ``tgt``.

    F and G are parallel functors ``cat`` -> ``tgt``, whose rows are ``s``
    and ``t``, given by their arrays (validated functors or their
    composites).  ``components[x]`` must be an invertible morphism
    F(x) -> G(x) of ``tgt``, every square must commute, and no key may name
    anything but an object of ``cat``.  The squares are read off the rows
    of ``tgt``, at the generators of ``cat`` (``groups._check_on_generators``),
    and a broken one is located among all squares in morphism order; one at
    an identity holds by the endpoints, so the first that fails is at a
    non-identity.  A failure raises NotNatural, its message prefixed by
    ``where``, with the entry and the object or morphism as witness.
    """

    def fail(message: str, **witness) -> NoReturn:
        raise NotNatural(f"{where}: {message}", witness={"entry": where, **witness})

    (f_obj, f_mor), (g_obj, g_mor) = f, g
    comp = []
    for x, fx, gx in zip(cat.objects, f_obj, g_obj):
        c = components.get(x)
        if c is None:
            fail(f"no component at {x!r}", object=x)
        if c not in t.index:
            fail(f"component at {x!r} is not a morphism of {tgt.name}", object=x)
        i = t.index[c]
        if t.src[i] != fx or t.tgt[i] != gx:
            fail(f"component at {x!r} has wrong endpoints", object=x)
        if i not in t.inv:
            fail(f"component at {x!r} is not invertible", object=x)
        comp.append(i)
    rows, ends_s, ends_t = t.rows, s.src, s.tgt

    def locate() -> NoReturn:
        lhs = [rows[fm][comp[y]] for fm, y in zip(f_mor, ends_t)]
        rhs = [rows[comp[x]][gm] for gm, x in zip(g_mor, ends_s)]
        m = s.names[next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)]
        fail(f"naturality fails at morphism {m!r}", morphism=m)

    _check_on_generators(s, lambda m: rows[f_mor[m]][comp[ends_t[m]]] ==
                         rows[comp[ends_s[m]]][g_mor[m]], locate)
    # every object has a component, so a longer table has a stray key
    if len(components) != len(cat.objects):
        x = next(x for x in components if not cat.has_object(x))
        fail(f"component key {x!r} is not an object of {cat.name}", object=x)
    return comp


# -- structural predicates ----------------------------------------------------


@dataclass(frozen=True)
class PredicateReport:
    is_scwol: bool
    is_EI: bool
    is_directly_finite: bool
    is_groupoid: bool
    is_skeletal: bool
    is_connected: bool


def classify(cat: FinCat) -> PredicateReport:
    """Compute structural predicates from the int arrays ``cat._ends``.

    Every identity is an endomorphism, one per object, so ``cat`` is a
    scwol when those are all its endomorphisms; it is EI when every
    endomorphism is invertible, a groupoid when every morphism is, and
    skeletal when every invertible morphism is an endomorphism.  So each of
    those is a count (``_Ends.endomorphisms``, ``_Ends.census``).
    Connectivity is one union-find pass over the non-empty hom-sets
    (``_Ends.hom_rows``).  Direct finiteness was decided when ``cat`` was
    built: by the inverse search of its rows (``_inverse_search``), or from
    its builder's proof, as for a Grothendieck total over a directly finite
    index (``hocolim._grothendieck``).
    """
    ends = cat._ends
    endos = ends.endomorphisms()
    morphisms, invertibles, invertible_endos = ends.census()

    # connectivity under the zigzag relation, counting the merges
    parent = list(range(len(cat)))
    components = len(parent)
    for a, row in enumerate(ends.hom_rows()):
        for b in row:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                components -= 1

    return PredicateReport(
        is_scwol=endos == len(cat),
        is_EI=invertible_endos == endos,
        is_directly_finite=cat._directly_finite,
        is_groupoid=invertibles == morphisms,
        is_skeletal=invertible_endos == invertibles,
        is_connected=components <= 1,
    )


def _is_scwol(cat: FinCat) -> bool:
    """``classify(cat).is_scwol``."""
    return cat._ends.endomorphisms() == len(cat)


def _is_thin(cat: FinCat) -> bool:
    """Whether every non-empty hom-set of ``cat`` has one element, so that
    any two morphisms with the same endpoints are equal."""
    return cat._ends.is_thin()


def _require_scwol(cat: FinCat) -> None:
    """Raise NotScwol, with the first non-identity endomorphism as witness,
    unless every endomorphism of ``cat`` is an identity.  The witness is
    found on ``_ends`` and named by ``morphism_names``."""
    if _is_scwol(cat):
        return
    ends = cat._ends
    m = next(m for m, (x, y) in enumerate(zip(ends.src, ends.tgt)) if x == y and ends.ident[x] != m)
    raise NotScwol(f"{cat.name} has a non-identity endomorphism",
                   witness={"morphism": cat.morphism_names()[m]})


def _is_EI(cat: FinCat) -> bool:
    """``classify(cat).is_EI``."""
    ends = cat._ends
    return ends.census()[2] == ends.endomorphisms()


def _is_groupoid(cat: FinCat) -> bool:
    """``classify(cat).is_groupoid``."""
    morphisms, invertibles, _ = cat._ends.census()
    return invertibles == morphisms


# -- isomorphism classes and automorphism groups ------------------------------


@dataclass(frozen=True)
class IsoClasses:
    classes: tuple[tuple[str, ...], ...]
    representatives: tuple[str, ...]
    aut: Mapping[str, FinGroup]
    all_endos_invertible: Mapping[str, bool]


def _iso_roots(cat: FinCat) -> list[int]:
    """The least object index of each object's isomorphism class, by object
    index, from the invertible morphisms of ``cat._ends``.  The class of x is
    x with the targets of the invertible arrows out of x (isomorphism is
    symmetric and transitive in a lawful category), so its least index is
    the least of those."""
    root = list(range(len(cat)))
    for x, y in cat._ends.invertible_ends():
        if y < root[x]:
            root[x] = y
    return root


def _iso_partition(cat: FinCat) -> tuple[tuple[str, ...], ...]:
    """Isomorphism classes, each sorted, in the order of their least object:
    the classes of ``_iso_roots``, named."""
    classes: dict[int, list[str]] = {}
    for x, r in zip(cat.objects, _iso_roots(cat)):
        classes.setdefault(r, []).append(x)
    return tuple(sorted(tuple(sorted(cls)) for cls in classes.values()))


def iso_classes(cat: FinCat) -> IsoClasses:
    """Partition objects into isomorphism classes, in one pass over the
    morphisms, read off the rows of ``cat`` (``_rows_of``).

    The representative of each class is its lexicographically least object
    id.  The automorphism group at the representative is the group of
    invertible endomorphisms (``inv``) under composition (all
    endomorphisms, in an EI-category), in morphism order, built unchecked:
    in a lawful category the invertible endomorphisms of x hold id_x and
    are closed under composition ((a o b)^-1 = b^-1 o a^-1) and under
    inverses, and composition is associative, so they form a group with
    that identity and inverse.  Its product a o b is ``rows[b][a]``.
    """
    classes = _iso_partition(cat)
    r = _rows_of(cat)
    names, rows, inv = r.names, r.rows, r.inv
    endos: dict[int, list[int]] = {r.objects[cls[0]]: [] for cls in classes}
    for m, (x, y) in enumerate(zip(r.src, r.tgt)):
        if x == y and x in endos:
            endos[x].append(m)
    aut = {}
    full = {}
    for cls, (x, ms) in zip(classes, endos.items()):
        rep = cls[0]
        invertibles = [m for m in ms if m in inv]
        full[rep] = len(invertibles) == len(ms)
        pos = {m: i for i, m in enumerate(invertibles)}
        table = tuple([tuple([pos[rows[b][a]] for b in invertibles]) for a in invertibles])
        labels = tuple([names[m] for m in invertibles])
        aut[rep] = _trusted(FinGroup, labels=labels, table=table, name=f"aut({rep})",
                            _index={m: i for i, m in enumerate(labels)}, _identity=pos[r.ident[x]],
                            _inverse=tuple([pos[inv[a]] for a in invertibles]))
    return IsoClasses(classes, tuple(c[0] for c in classes), aut, full)


# -- skeleton -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SkeletonData:
    """A skeleton Gamma of a category with its inclusion i and retraction r.

    ``eta[x]`` is the component at x of the natural isomorphism
    eta: i o r => id, an isomorphism r(x) -> x.
    """

    category: FinCat
    inclusion: CatFunctor
    retraction: CatFunctor
    eta: Mapping[str, str]


def full_subcategory(cat: FinCat, objects: Iterable[str], name: str | None = None) -> FinCat:
    """The full subcategory on ``objects`` (other names are ignored), off
    the rows of ``cat``, in its orders.  An inverse of a kept morphism is
    kept, and a one-sided inverse here is one in ``cat``, so the inverses
    of a directly finite ``cat`` are lifted."""
    keep, r = set(objects), _rows_of(cat)
    kept = [x for x, c in enumerate(cat.objects) if c in keep]
    obj_at = {x: k for k, x in enumerate(kept)}
    mors = [m for m, (x, y) in enumerate(zip(r.src, r.tgt)) if x in obj_at and y in obj_at]
    at, rows = {m: k for k, m in enumerate(mors)}, r.rows
    inverses = ({at[m]: at[g] for m, g in r.inv.items() if m in at}, True)
    return _stored(name or f"{cat.name}_full", [cat.objects[x] for x in kept],
                   [r.names[m] for m in mors], [obj_at[r.src[m]] for m in mors],
                   [obj_at[r.tgt[m]] for m in mors], [at[r.ident[x]] for x in kept],
                   ((at[g], at[f], at[rows[f][g]]) for g, f in r.pairs() if f in at and g in at),
                   inverses if cat._directly_finite else None)


def _skeleton_category(cat: FinCat) -> FinCat:
    """``skeleton(cat).category`` alone, for callers that read nothing else:
    no functors or natural isomorphism are built, and a skeletal input (every
    class a singleton) is returned as it is."""
    if all(r == x for x, r in enumerate(_iso_roots(cat))):
        return cat
    return full_subcategory(cat, [cls[0] for cls in _iso_partition(cat)], name=f"sk({cat.name})")


def _retract(cat: FinCat, rep_of: Mapping[str, str], name: str) -> SkeletonData:
    """The retraction data of a choice of representatives.

    ``rep_of`` maps every object to the representative of its isomorphism
    class, and each representative to itself.  Returns the full subcategory
    Gamma on the representatives, the inclusion i, and eta: i o r => id with
    eta_x the least-named isomorphism rep(x) -> x (the identity at a
    representative); the retraction r conjugates f: x -> y into
    r(f) = eta_y^-1 o f o eta_x: rep(x) -> rep(y), so r o i = id_Gamma.
    Unchecked: the inner eta cancel in r(g) o r(f), and eta is natural by that definition.
    Everything is read off the rows of ``cat``.
    """
    gamma = full_subcategory(cat, rep_of.values(), name=name)
    r, g = _rows_of(cat), gamma._ends
    names, objects, rows, inv = r.names, r.objects, r.rows, r.inv
    fm = list(map(r.index.__getitem__, g.names))
    inclusion = _trusted(CatFunctor, source=gamma, target=cat,
                         _arrays=(list(map(objects.__getitem__, gamma.objects)), fm))
    isos: dict[int, list[str]] = {}  # the isomorphisms rep(x) -> x, by x
    for u in inv:
        x = r.tgt[u]
        if x != r.src[u] and objects[rep_of[cat.objects[x]]] == r.src[u]:
            isos.setdefault(x, []).append(names[u])
    eta_comp = {x: min(isos[objects[x]]) if x != rep else names[r.ident[objects[x]]]
                for x, rep in rep_of.items()}
    eta, at = [r.index[eta_comp[x]] for x in cat.objects], {m: k for k, m in enumerate(fm)}
    r_mor = [at[rows[rows[eta[x]][m]][inv[eta[y]]]] for m, (x, y) in enumerate(zip(r.src, r.tgt))]
    retraction = _trusted(CatFunctor, source=cat, target=gamma, _arrays=(
        [g.objects[rep_of[x]] for x in cat.objects], r_mor))
    return SkeletonData(gamma, inclusion, retraction, eta_comp)


def skeleton(cat: FinCat) -> SkeletonData:
    """Full subcategory on iso-class representatives with retraction data.

    The representative of each class is its least object id (the classes of
    ``_iso_partition``); ``_retract`` builds (Gamma, i, r, eta) from that
    choice, with r o i = id_Gamma and eta: i o r => id, a table of components
    whose entry at a non-representative x is the least-named isomorphism
    rep(x) -> x.
    """
    rep_of = {x: cls[0] for cls in _iso_partition(cat) for x in cls}
    return _retract(cat, rep_of, f"sk({cat.name})")


# -- integer-indexed hom counts ------------------------------------------------


def _count_rows(cat: FinCat, transpose: bool = False) -> list[dict[int, int]]:
    """Sparse rows {j: |mor(x_i, x_j)|} of the hom-count matrix, indexed by
    the object order (or of its transpose), from ``cat._ends``; only
    non-zero counts are stored, in the order of the first morphism of each
    hom-set."""
    return cat._ends.hom_rows(transpose)


def _topological_order(rows: Sequence[Mapping[int, int]]) -> Optional[list[int]]:
    """Kahn's algorithm on the off-diagonal support of sparse rows: every j
    with a non-zero rows[i][j], j != i, comes before i.  None on a cycle."""
    waiting = [len(row) - (i in row) for i, row in enumerate(rows)]
    needed_by: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            if j != i:
                needed_by[j].append(i)
    ready = [i for i, count in enumerate(waiting) if count == 0]
    order = []
    while ready:
        j = ready.pop()
        order.append(j)
        for i in needed_by[j]:
            waiting[i] -= 1
            if waiting[i] == 0:
                ready.append(i)
    return order if len(order) == len(rows) else None


# -- scwol path combinatorics -------------------------------------------------


@dataclass(frozen=True)
class PathCounts:
    """Alternating-sum data for a skeletal scwol.

    ``counts[n]`` is the number of paths of n composable non-identity
    morphisms; ``starts[x][n]`` counts those starting at x.  Computed on the
    skeleton of the input, whose objects key ``starts``.
    """

    counts: tuple[int, ...]
    starts: Mapping[str, tuple[int, ...]]

    def euler_sum(self) -> int:
        return sum((-1) ** n * c for n, c in enumerate(self.counts))


def path_counts(cat: FinCat, n_max: Optional[int] = None) -> PathCounts:
    """Count composable paths of non-identity morphisms, per length and start.

    It serves per-length output (the ``paths`` command, ``bar_spectrum``);
    the alternating sums alone are the skeleton's weighting
    (``eulerchar._scwol_weights``), found in one pass over the arrows.

    The input is replaced by its skeleton internally.  Counts come from a
    dynamic program over the skeleton's non-identity arrows: the number of
    paths of length n starting at x is the sum, over arrows x -> y, of
    those of length n - 1 starting at y, so each length costs one pass over
    the arrows.  A skeletal scwol has no cycle of non-identity arrows: in
    x -> y -> ... -> x, with x != y, the arrow f: x -> y and the composite
    g: y -> x give endomorphisms g o f and f o g, identities in a scwol, so
    f would be an isomorphism between distinct objects, which a skeleton
    has not.  So its paths visit distinct objects and have fewer arrows
    than it has objects.  A path longer than ``n_max`` raises NotScwol.
    """
    _require_scwol(cat)
    return _skeleton_path_counts(_skeleton_category(cat), cat.name, n_max)


def _skeleton_path_counts(gamma: FinCat, name: str, n_max: Optional[int] = None) -> PathCounts:
    """``path_counts`` on a skeletal scwol, with no scwol check or second skeleton."""
    objs = gamma.objects
    # a scwol's only endomorphisms are identities: the off-diagonal counts
    # are exactly the non-identity arrows
    rows = _count_rows(gamma)

    counts = [len(objs)]
    starts = [[1] for _ in objs]
    vec = [1] * len(objs)
    for level in range(1, len(objs)):  # a path visits distinct objects (``path_counts``)
        vec = [sum(k * vec[j] for j, k in row.items() if j != i) for i, row in enumerate(rows)]
        total = sum(vec)
        if not total:
            break
        if n_max is not None and level > n_max:
            raise NotScwol(
                f"{name}: a path of {level} arrows is longer than the requested cap {n_max}",
                witness={"level": level},
            )
        counts.append(total)
        for row, v in zip(starts, vec):
            row.append(v)

    return PathCounts(tuple(counts), {x: tuple(row) for x, row in zip(objs, starts)})


def lower_link(cat: FinCat, obj: str) -> FinCat:
    """The scwol of non-identity morphisms out of ``obj``.

    Objects are the non-identity morphisms a with source obj; a morphism
    a -> b is a morphism u of the ambient scwol with u o a = b, recorded as
    the pair (u, a).  Its composites are those of ``cat``, read off its
    rows, so no law is checked.
    """
    _require_scwol(cat)
    cat.require_object(obj)
    r = _rows_of(cat)
    names, rows, out, start = r.names, r.rows, r.out(), r.objects[obj]
    link = [a for a in out[start] if a != r.ident[start]]
    link_at = {a: k for k, a in enumerate(link)}
    pairs = {pair: m for m, pair in enumerate(  # the morphisms (u, a), each to its index
        [(u, a) for a in link for u in out[r.tgt[a]] if rows[a][u] in link_at])}
    src = [link_at[a] for _, a in pairs]
    tgt = [link_at[rows[a][u]] for u, a in pairs]
    by_source: list[list[tuple[int, int]]] = [[] for _ in link]  # (m, u) of each m out of k
    for (u, _), m in pairs.items():
        by_source[src[m]].append((m, u))
    # (u2, b) o (u1, a) = (u2 o u1, a)
    return _stored(f"Lk^{obj}({cat.name})", [names[a] for a in link],
                   [f"({names[u]},{names[a]})" for u, a in pairs], src, tgt,
                   [pairs[r.ident[r.tgt[a]], a] for a in link],
                   ((m2, m1, pairs[rows[u1][u2], a]) for (u1, a), m1 in pairs.items()
                    for m2, u2 in by_source[tgt[m1]]))


# -- constructions used across the library ------------------------------------


def opposite(cat: FinCat) -> FinCat:
    """The opposite category, off the rows of ``cat``: each entry (g, f) is
    read as (f, g), in ``cat``'s order.  Its inverses are ``cat``'s."""
    r = _rows_of(cat)
    return _stored(f"{cat.name}^op", cat.objects, r.names, r.tgt, r.src, r.ident,
                   ((f, g, r.rows[f][g]) for g, f in r.pairs()), (r.inv, cat._directly_finite))


def product(a: FinCat, b: FinCat) -> FinCat:
    """The product category, off the rows of ``a`` and ``b``, ``a``'s
    index major; the entries pair ``a``'s with ``b``'s, each in order."""

    def po(x, y):
        return f"({x},{y})"

    ra, rb = _rows_of(a), _rows_of(b)
    n, k = len(b), len(rb.names)  # the objects and the morphisms of b
    b_entries = [(g, f, rb.rows[f][g]) for g, f in rb.pairs()]
    return _stored(
        f"{a.name}x{b.name}", [po(x, y) for x in a.objects for y in b.objects],
        [po(m1, m2) for m1 in ra.names for m2 in rb.names],
        [x * n + y for x in ra.src for y in rb.src], [x * n + y for x in ra.tgt for y in rb.tgt],
        [e1 * k + e2 for e1 in ra.ident for e2 in rb.ident],
        ((g1 * k + g2, f1 * k + f2, ra.rows[f1][g1] * k + gf2)
         for g1, f1 in ra.pairs() for g2, f2, gf2 in b_entries))

