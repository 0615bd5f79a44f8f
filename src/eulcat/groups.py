"""Finite groups as explicit Cayley tables, plus group homomorphisms.

Elements are referred to by opaque string labels at the boundary; inside,
every group law is computed on integer indices: ``FinGroup.table`` holds
the products and ``FinGroup._inverse`` the inverses, and a homomorphism is
read as the list of its image indices (``_image_of``).  Labels come back only
for results and error messages.  Groups are tiny here (order <= a few dozen),
so every axiom is checked at construction time, except for the cyclic
groups, written by index arithmetic (``cyclic_group``), and the subgroups
and identity maps of checked groups.  Associativity (Light's
test, ``_check_associative``, for groups and categories alike) and
homomorphisms, like functors, naturality and actions, are checked at a
generating set (``_generating_set``) by one kernel, ``_check_on_generators``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NoReturn, Optional, Sequence, Union

from .errors import ValidationError, _trusted


class NotAGroup(ValidationError):
    """Cayley table fails associativity, identity, or inverses."""


class NotAHomomorphism(ValidationError):
    """Elementwise map does not preserve the group structure."""


def _first_repeat(items: Sequence[str]) -> str:
    """The first item equal to an earlier one, found in one pass."""
    seen: set[str] = set()
    return next(x for x in items if x in seen or seen.add(x))


def _require_list(value, what: str) -> None:
    """Raise TypeError unless ``value``, the part ``what`` of a manifest, is a
    list: a string or object would be read item by item."""
    if type(value) is not list:
        raise TypeError(f"{what} must be a list, not {type(value).__name__}")


def _positions(src: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """The place of each morphism among the morphisms out of its source, in
    index order, for ``n`` objects: the cell of g in a row (``fincat._Rows``);
    and the number of morphisms out of each object, the width of a row."""
    seen, pos = [0] * n, []
    for x in src:
        pos.append(seen[x])
        seen[x] += 1
    return pos, seen


def _generating_set(rows: Sequence, ident: Sequence[int], src: Sequence[int],
                    tgt: Sequence[int], pos: Optional[Sequence[int]] = None) -> list[int]:
    """Morphisms of which every morphism is a composite (an identity is the
    empty one), on rows where row x lists the composites g o x for the g out
    of ``tgt[x]`` in index order (``fincat._Rows``), and ``ident`` lists the
    identities.  In index order, each morphism that is no composite of those
    found before it is added, and the composites it makes are reached from
    the identities by composing on the left.  A group is the one-object
    case, with ``rows[x][g]`` the product xg.  ``pos`` is ``_positions``
    of ``src``, made here unless given.  Why a law checked at these implies
    it everywhere is proved once, in ``_check_on_generators``."""
    pos = _positions(src, len(ident))[0] if pos is None else pos
    reached = [False] * len(rows)
    # the morphisms reached, by target, and the cells of the generators, by source
    into, gens_from = [[e] for e in ident], [[] for _ in ident]
    for e in ident:
        reached[e] = True
    gens: list[int] = []
    for m in range(len(rows)):
        if reached[m]:
            continue
        gens.append(m)
        p = pos[m]
        gens_from[src[m]].append(p)
        # a new composite has the form u o m o v, v reached before m
        todo = [rows[v][p] for v in into[src[m]]]
        for x in todo:  # read as it grows
            if not reached[x]:
                reached[x] = True
                y = tgt[x]
                into[y].append(x)
                row = rows[x]
                for q in gens_from[y]:
                    todo.append(row[q])
    return gens


def _check_on_generators(of: Union["FinGroup", "_Rows"], holds: Callable[[int], bool],
                         locate: Callable[[], NoReturn]) -> list[int]:
    """Check a law on ``of``, a group or a category's rows (``fincat._Rows``),
    by ``holds(s)`` at each generator s, and return the generators: a checked
    group's ``_gens``, the rows' ``generators()``, or, for a group built
    unchecked, ``_generating_set`` found now.  If one fails, ``locate()``
    walks every case in the caller's order and raises the caller's error,
    message and witness at the first that fails.

    Why the generators suffice.  Each caller checks the law at identities
    first, and the elements where it holds are closed under products, so it
    holds at every product of generators, which is every element.  Write st
    for s then t (t o s in a category):

    - a homomorphism, action or functor F, with the law F(xs) = F(x)F(s) at
      s for every x (or its mirror image): F(x st) = F(xs)F(t) = F(x)F(s)F(t)
      = F(x)F(st), the last step by the law at t with x = s;
    - naturality squares: squares that commute at s and at t commute at st;
    - associativity (Light's test), with h o (g o f) = (h o g) o f at g for
      every composable h and f: h o ((g2 o g1) o f) = h o (g2 o (g1 o f))
      = (h o g2) o (g1 o f) = ((h o g2) o g1) o f = (h o (g2 o g1)) o f,
      each step by the law at g1 or at g2."""
    gens = _gens_of(of) if isinstance(of, FinGroup) else of.generators()
    if not all(map(holds, gens)):
        locate()
        raise AssertionError("a law fails at a generator but its locator found no fault")
    return gens


def _gens_of(group: FinGroup) -> list[int]:
    """The generators a checked group kept (``_gens``), or else found now."""
    if group._gens is not None:
        return group._gens
    one = [0] * len(group.table)
    return _generating_set(group.table, [group._identity], one, one)


def _unassociative(rows: Sequence, pos: Sequence[int], tgt: Sequence[int], ident: Sequence[int],
                   out: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """The first triple (f, g, h) with h o (g o f) != (h o g) o f, or None,
    on tuple rows where ``rows[f][pos[g]]`` is g o f (``fincat._Rows``) and
    ``out[y]`` lists the morphisms out of y: f in index order, g in
    ``out[tgt[f]]``, h in ``out[tgt[g]]``, all h at once (the row of g o f
    against row f read at the cells of the h o g, ``take``), to locate the
    fault of ``_check_associative``.  Triples with an identity f, g or h
    hold by the identity laws, checked first, so a g with no other h is
    skipped.  A group has ``pos[g] == g`` and ``out == [[0, ..., n-1]]``."""
    ids = set(ident)
    steps = [[(g, pos[g], itemgetter(*map(pos.__getitem__, rows[g])))
              for g in gs if g not in ids and len(rows[g]) > 1] for gs in out]
    for f, row_f in enumerate(rows):
        if f in ids:
            continue
        for g, p, take in steps[tgt[f]]:
            row_gf = rows[row_f[p]]
            if row_gf != take(row_f):
                return f, g, next(h for h, a, b in zip(out[tgt[g]], row_gf, take(row_f)) if a != b)
    return None


def _check_associative(of: Union["FinGroup", "_Rows"], names: Sequence[str], rows: Sequence,
                       pos: Sequence[int], src: Sequence[int], tgt: Sequence[int],
                       ident: Sequence[int], out: Sequence[Sequence[int]],
                       fail: Callable[..., NoReturn]) -> list[int]:
    """Check h o (g o f) = (h o g) o f at each generator g of ``of`` (Light's
    test) on rows as for ``_unassociative``; return the generators.  The first
    fault, found by ``_unassociative``, is raised by ``fail`` on its names."""
    into = [[] for _ in out]  # the rows, by target
    for y, row in zip(tgt, rows):
        into[y].append(row)

    def holds(g: int) -> bool:  # one cell: its h is an identity, and its getter reads no tuple
        fs, cells = into[src[g]], list(map(pos.__getitem__, rows[g]))
        return len(cells) < 2 or list(map(rows.__getitem__, map(itemgetter(pos[g]), fs))) == \
            list(map(itemgetter(*cells), fs))

    return _check_on_generators(of, holds, lambda: (bad := _unassociative(
        rows, pos, tgt, ident, out)) and fail(*map(names.__getitem__, bad)))


@dataclass(frozen=True, eq=False)
class FinGroup:
    """A finite group given by element labels and a Cayley table on indices.

    ``table[i][j]`` is the index of the product ``labels[i] * labels[j]``.
    Associativity is checked on generators (``_check_associative``).
    """

    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    name: str = "G"
    _index: dict = field(init=False, repr=False, compare=False)
    _identity: int = field(init=False, repr=False, compare=False)
    _inverse: tuple = field(init=False, repr=False, compare=False)
    # the generating set the check found; None on a group built unchecked
    _gens: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            dup = _first_repeat(self.labels)
            raise NotAGroup(f"duplicate element labels in {self.name}", witness={"element": dup})
        shape = [len(row) for row in self.table]
        if shape != [n] * n:
            raise NotAGroup(f"Cayley table of {self.name} is not {n}x{n}", witness={"shape": shape})
        for row in self.table:
            for v in row:
                if not 0 <= v < n:
                    raise NotAGroup(f"Cayley table entry {v} out of range", witness={"entry": v})
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})
        rows = list(map(tuple, self.table))  # rows of a table of tuples (``fincat._Rows``)
        cols = list(zip(*rows))
        # identity: the first e whose row and column both read 0, 1, ..., n-1
        every = tuple(range(n))
        identity = next((e for e in every if rows[e] == every and cols[e] == every), None)
        if identity is None:
            raise NotAGroup(f"{self.name} has no identity element", witness={"group": self.name})
        object.__setattr__(self, "_identity", identity)
        # inverse of a: the first b where row a and column a both hold e
        inverse = []
        for a, row_a in enumerate(rows):
            col_a = cols[a]
            b = -1
            try:
                while True:
                    b = row_a.index(identity, b + 1)
                    if col_a[b] == identity:
                        break
            except ValueError:
                raise NotAGroup(f"element {self.labels[a]!r} of {self.name} has no inverse",
                                witness={"element": self.labels[a]}) from None
            inverse.append(b)
        object.__setattr__(self, "_inverse", tuple(inverse))

        def fail(a: str, b: str, c: str) -> NoReturn:
            raise NotAGroup(f"{self.name} is not associative on ({a!r}, {b!r}, {c!r})",
                            witness=(a, b, c))

        object.__setattr__(self, "_gens", _check_associative(
            self, self.labels, rows, every, [0] * n, [0] * n, [identity], [every], fail))

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def identity(self) -> str:
        return self.labels[self._identity]

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"{label!r} is not an element of {self.name}") from None

    def mul(self, a: str, b: str) -> str:
        return self.labels[self.table[self.index(a)][self.index(b)]]

    def inv(self, a: str) -> str:
        return self.labels[self._inverse[self.index(a)]]

    def conjugate(self, a: str, by: str) -> str:
        """Return ``by * a * by^-1``."""
        b = self.index(by)
        return self.labels[self.table[self.table[b][self.index(a)]][self._inverse[b]]]

    # -- constructions -----------------------------------------------------

    def subgroup(self, members: Iterable[str], name: str | None = None) -> "FinGroup":
        """Full subgroup on ``members``; raises if the subset is not closed.

        A closed non-empty subset of a finite group is a subgroup: it holds
        the identity and every inverse, read here from this group's, and it
        inherits associativity.  So only closure is checked.
        """
        labels = sorted(set(members), key=self.index)
        idx = [self._index[lab] for lab in labels]
        pos = {i: k for k, i in enumerate(idx)}
        table = []
        for a in idx:
            row = self.table[a]
            products = [row[b] for b in idx]
            try:
                table.append(tuple([pos[p] for p in products]))
            except KeyError:
                b, p = next((b, p) for b, p in zip(idx, products) if p not in pos)
                names = self.labels
                raise NotAGroup(
                    f"subset not closed: {names[a]!r}*{names[b]!r} = {names[p]!r} escapes",
                    witness={"pair": (names[a], names[b]), "product": names[p]},
                ) from None
        name = name or f"{self.name}_sub"
        if not idx:
            raise NotAGroup(f"{name} has no identity element", witness={"group": name})
        return _trusted(FinGroup, labels=tuple(labels), table=tuple(table), name=name,
                        _index={lab: k for k, lab in enumerate(labels)},
                        _identity=pos[self._identity],
                        _inverse=tuple(pos[self._inverse[a]] for a in idx))

    @staticmethod
    def from_mul(labels: Sequence[str], mul, name: str = "G") -> "FinGroup":
        labels = tuple(labels)
        pos = {lab: i for i, lab in enumerate(labels)}
        table = tuple(
            tuple(pos[mul(a, b)] for b in labels) for a in labels
        )
        return FinGroup(labels, table, name=name)


def cyclic_group(n: int) -> FinGroup:
    """Z/n on the labels "0" .. "n-1", written by index arithmetic, not
    checked: i + j mod n is associative, 0 is its identity and -i mod n the
    inverse of i, and every element is a sum of 1s, so the check would keep
    [1] as the generating set (none for n = 1, whose one element is 0)."""
    name, every = f"Z{n}", tuple(range(n))
    if n < 1:
        raise NotAGroup(f"{name} has no identity element", witness={"group": name})
    labels = tuple(map(str, every))
    return _trusted(FinGroup, labels=labels, table=tuple(every[i:] + every[:i] for i in every),
                    name=name, _index=dict(zip(labels, every)), _identity=0,
                    _inverse=tuple(-i % n for i in every), _gens=[1] if n > 1 else [])


def trivial_group() -> FinGroup:
    return cyclic_group(1)


def klein_four_group() -> FinGroup:
    labels = ("e", "a", "b", "ab")
    bits = {"e": (0, 0), "a": (1, 0), "b": (0, 1), "ab": (1, 1)}
    inv = {v: k for k, v in bits.items()}

    def mul(x, y):
        return inv[((bits[x][0] + bits[y][0]) % 2, (bits[x][1] + bits[y][1]) % 2)]

    return FinGroup.from_mul(labels, mul, name="V4")


def symmetric_group(n: int) -> FinGroup:
    """S_n acting on {0, ..., n-1}; element label = one-line notation."""
    perms = sorted(itertools.permutations(range(n)))
    label = {p: "".join(map(str, p)) for p in perms}
    by_label = {v: k for k, v in label.items()}

    def mul(a, b):
        pa, pb = by_label[a], by_label[b]
        return label[tuple(pa[pb[i]] for i in range(n))]

    return FinGroup.from_mul(tuple(label[p] for p in perms), mul, name=f"S{n}")


def perm_of_label(label: str) -> tuple[int, ...]:
    """Recover the permutation from a symmetric_group element label."""
    return tuple(int(ch) for ch in label)


@dataclass(frozen=True, eq=False)
class GroupHom:
    """A group homomorphism given elementwise, checked on generators (``_check_on_generators``)."""

    source: FinGroup
    target: FinGroup
    mapping: Mapping[str, str]

    def __post_init__(self):
        source, target = self.source, self.target
        for a in source.labels:
            if a not in self.mapping:
                raise NotAHomomorphism(f"map undefined on {a!r}", witness={"element": a})
            if self.mapping[a] not in target:
                raise NotAHomomorphism(
                    f"image {self.mapping[a]!r} not in target group",
                    witness={"element": a, "image": self.mapping[a]},
                )
        img = _image_of(self)
        if img[source._identity] != target._identity:
            raise NotAHomomorphism("identity is not preserved", witness={"element": source.identity})
        # f(ab) against f(a)f(b) on the rows a of the generators
        # (``_check_on_generators``), located among all pairs in order
        s_table, t_table = source.table, target.table

        def locate() -> NoReturn:
            a, b = next((source.labels[a], source.labels[b]) for a, row_a in enumerate(s_table)
                        for b, ab in enumerate(row_a) if img[ab] != t_table[img[a]][img[b]])
            raise NotAHomomorphism(f"product not preserved on ({a!r}, {b!r})",
                                   witness={"pair": (a, b)})

        _check_on_generators(source, lambda a: [img[ab] for ab in s_table[a]] ==
                             [t_table[img[a]][fb] for fb in img], locate)
        # every element has an image, so a longer map has a stray key
        if len(self.mapping) != len(source):
            key = next(k for k in self.mapping if k not in source)
            raise NotAHomomorphism(
                f"map key {key!r} is not an element of {source.name}", witness={"key": key}
            )

    def __call__(self, a: str) -> str:
        return self.mapping[a]

    def is_injective(self) -> bool:
        return len(set(self.mapping.values())) == len(self.source)

    @staticmethod
    def identity_hom(group: FinGroup) -> "GroupHom":
        """The identity map, a homomorphism of every group: built unchecked."""
        return _trusted(GroupHom, source=group, target=group, mapping={a: a for a in group.labels})


def _image_of(hom: GroupHom) -> list[int]:
    """``img[i]`` is the target index of the image of source element i."""
    index = hom.target._index
    return [index[hom.mapping[a]] for a in hom.source.labels]


def all_homs(source: FinGroup, target: FinGroup) -> list[GroupHom]:
    """Every homomorphism source -> target, ordered by the target indices of
    the images of ``source.labels``.  A homomorphism is fixed by its values
    at the generators of its source, so each choice of those is extended
    along products and kept if ``GroupHom`` accepts it."""
    e, table, gens = source._identity, source.table, _gens_of(source)
    # every element y but e once, as y = xs: x reached before y, s a
    # generator (each generator first as es)
    reached, steps = [e], []
    for x in reached:
        for s in gens:
            y = table[x][s]
            if y not in reached:
                reached.append(y)
                steps.append((y, x, s))
    homs = []
    for images in itertools.product(range(len(target)), repeat=len(gens)):
        at, img = dict(zip(gens, images)), [target._identity] * len(table)
        for y, x, s in steps:
            img[y] = target.table[img[x]][at[s]]
        try:
            homs.append(GroupHom(source, target, dict(zip(source.labels, map(
                target.labels.__getitem__, img)))))
        except NotAHomomorphism:
            pass
    return sorted(homs, key=_image_of)
