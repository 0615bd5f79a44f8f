"""Finite groups as explicit Cayley tables, plus group homomorphisms.

Elements are referred to by opaque string labels; all tables index by
interned integers internally.  Groups are tiny here (order <= a few dozen),
so every axiom is checked exhaustively at construction time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError


class NotAGroup(ValidationError):
    """Cayley table fails associativity, identity, or inverses."""


class NotAHomomorphism(ValidationError):
    """Elementwise map does not preserve the group structure."""


@dataclass(frozen=True, eq=False)
class FinGroup:
    """A finite group given by element labels and a Cayley table on indices.

    ``table[i][j]`` is the index of the product ``labels[i] * labels[j]``.
    """

    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    name: str = "G"
    _index: dict = field(init=False, repr=False, compare=False)
    _identity: int = field(init=False, repr=False, compare=False)
    _inverse: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise NotAGroup(f"duplicate element labels in {self.name}")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise NotAGroup(f"Cayley table of {self.name} is not {n}x{n}")
        for row in self.table:
            for v in row:
                if not 0 <= v < n:
                    raise NotAGroup(f"Cayley table entry {v} out of range")
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})
        # identity: the unique e with e*x = x = x*e for all x
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(n)):
                identity = e
                break
        if identity is None:
            raise NotAGroup(f"{self.name} has no identity element")
        object.__setattr__(self, "_identity", identity)
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == identity == self.table[b][a]:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise NotAGroup(f"element {self.labels[a]!r} of {self.name} has no inverse")
        object.__setattr__(self, "_inverse", tuple(inverse))
        # (ab)c against a(bc) for every c at once: row ab of the table
        # against row a read through row b
        rows = [list(row) for row in self.table]
        for a, row_a in enumerate(rows):
            for b, ab in enumerate(row_a):
                if rows[ab] != [row_a[x] for x in rows[b]]:
                    c = next(c for c in range(n) if rows[ab][c] != row_a[rows[b][c]])
                    triple = (self.labels[a], self.labels[b], self.labels[c])
                    raise NotAGroup(
                        f"{self.name} is not associative on "
                        f"({triple[0]!r}, {triple[1]!r}, {triple[2]!r})",
                        witness=triple,
                    )

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
        return self.mul(self.mul(by, a), self.inv(by))

    # -- constructions -----------------------------------------------------

    def subgroup(self, members: Iterable[str], name: str | None = None) -> "FinGroup":
        """Full subgroup on ``members``; raises if the subset is not closed."""
        labels = sorted(set(members), key=self.index)
        pos = {lab: i for i, lab in enumerate(labels)}
        table = []
        for a in labels:
            row = []
            for b in labels:
                p = self.mul(a, b)
                if p not in pos:
                    raise NotAGroup(f"subset not closed: {a!r}*{b!r} = {p!r} escapes")
                row.append(pos[p])
            table.append(tuple(row))
        return FinGroup(tuple(labels), tuple(table), name=name or f"{self.name}_sub")

    @staticmethod
    def from_mul(labels: Sequence[str], mul, name: str = "G") -> "FinGroup":
        labels = tuple(labels)
        pos = {lab: i for i, lab in enumerate(labels)}
        table = tuple(
            tuple(pos[mul(a, b)] for b in labels) for a in labels
        )
        return FinGroup(labels, table, name=name)


def cyclic_group(n: int) -> FinGroup:
    labels = tuple(str(i) for i in range(n))
    return FinGroup.from_mul(labels, lambda a, b: str((int(a) + int(b)) % n), name=f"Z{n}")


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
    """A group homomorphism given elementwise."""

    source: FinGroup
    target: FinGroup
    mapping: Mapping[str, str]

    def __post_init__(self):
        for a in self.source.labels:
            if a not in self.mapping:
                raise NotAHomomorphism(f"map undefined on {a!r}")
            if self.mapping[a] not in self.target:
                raise NotAHomomorphism(f"image {self.mapping[a]!r} not in target group")
        if self.mapping[self.source.identity] != self.target.identity:
            raise NotAHomomorphism("identity is not preserved")
        for a in self.source.labels:
            for b in self.source.labels:
                if self.mapping[self.source.mul(a, b)] != self.target.mul(
                    self.mapping[a], self.mapping[b]
                ):
                    raise NotAHomomorphism(f"product not preserved on ({a!r}, {b!r})")

    def __call__(self, a: str) -> str:
        return self.mapping[a]

    def is_injective(self) -> bool:
        return len(set(self.mapping.values())) == len(self.source)

    @staticmethod
    def identity_hom(group: FinGroup) -> "GroupHom":
        return GroupHom(group, group, {a: a for a in group.labels})


def all_homs(source: FinGroup, target: FinGroup) -> list[GroupHom]:
    """Enumerate every homomorphism source -> target by backtracking.

    Only intended for tiny groups (orders <= ~8).
    """
    src = source.labels
    out: list[GroupHom] = []
    partial: dict[str, str] = {source.identity: target.identity}

    def consistent(elt, img) -> bool:
        for a, fa in partial.items():
            for x, fx, y, fy in ((elt, img, a, fa), (a, fa, elt, img)):
                prod = source.mul(x, y)
                if prod in partial or prod == elt:
                    want = partial.get(prod, img if prod == elt else None)
                    if want is not None and target.mul(fx, fy) != want:
                        return False
        return True

    def extend(i):
        if i == len(src):
            try:
                out.append(GroupHom(source, target, dict(partial)))
            except NotAHomomorphism:
                pass
            return
        elt = src[i]
        if elt in partial:
            extend(i + 1)
            return
        for img in target.labels:
            if consistent(elt, img):
                partial[elt] = img
                extend(i + 1)
                del partial[elt]

    extend(0)
    return out
