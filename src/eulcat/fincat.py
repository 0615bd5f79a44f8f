"""Finite categories as explicit object/morphism/composition tables.

A FinCat stores everything needed to answer categorical questions by
exhaustive search: the full composition table, identities, hom-sets.
Validation checks identity laws and associativity on every composable
pair/triple, so downstream code may assume a lawful category.

All values are immutable after validation; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationError
from .groups import FinGroup


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


@dataclass(frozen=True, eq=False)
class FinCat:
    """A finite category: ordered objects, morphism records, identity map,
    and a total composition table on composable pairs.

    ``composition[(g, f)]`` is the name of ``g o f`` (apply f first), defined
    exactly when ``target(f) == source(g)``.
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: Mapping[str, str]
    composition: Mapping[tuple[str, str], str]
    name: str = "C"
    check: InitVar[bool] = True

    _mor: dict = field(init=False, repr=False)
    _hom: dict = field(init=False, repr=False)
    _by_source: dict = field(init=False, repr=False)
    _by_target: dict = field(init=False, repr=False)
    _identity_names: frozenset = field(init=False, repr=False)
    _invertible: dict = field(init=False, repr=False)

    def __post_init__(self, check: bool = True):
        if len(set(self.objects)) != len(self.objects):
            raise DanglingReference(f"{self.name}: duplicate object ids")
        names = [m.name for m in self.morphisms]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise DanglingReference(f"{self.name}: duplicate morphism ids {dup}")
        obj_set = set(self.objects)
        mor = {m.name: m for m in self.morphisms}
        for m in self.morphisms:
            if m.source not in obj_set or m.target not in obj_set:
                raise DanglingReference(
                    f"{self.name}: morphism {m.name!r} has unknown endpoint "
                    f"{m.source!r} -> {m.target!r}"
                )
        object.__setattr__(self, "_mor", mor)

        # identities
        for x in self.objects:
            if x not in self.identity:
                raise BrokenIdentity(f"{self.name}: object {x!r} has no identity morphism")
            e = self.identity[x]
            if e not in mor:
                raise DanglingReference(f"{self.name}: identity {e!r} of {x!r} is unknown")
            if mor[e].source != x or mor[e].target != x:
                raise BrokenIdentity(f"{self.name}: identity {e!r} is not an endomorphism of {x!r}")
        for x in self.identity:
            if x not in obj_set:
                raise DanglingReference(f"{self.name}: identity table names unknown object {x!r}")
        object.__setattr__(self, "_identity_names", frozenset(self.identity.values()))

        hom: dict[tuple[str, str], list[str]] = {}
        by_source: dict[str, list[str]] = {x: [] for x in self.objects}
        by_target: dict[str, list[str]] = {x: [] for x in self.objects}
        for m in self.morphisms:
            hom.setdefault((m.source, m.target), []).append(m.name)
            by_source[m.source].append(m.name)
            by_target[m.target].append(m.name)
        object.__setattr__(self, "_hom", {k: tuple(v) for k, v in hom.items()})
        object.__setattr__(self, "_by_source", {k: tuple(v) for k, v in by_source.items()})
        object.__setattr__(self, "_by_target", {k: tuple(v) for k, v in by_target.items()})

        if check:
            # composition table: total on composable pairs, nothing else
            for (g, f), gf in self.composition.items():
                if g not in mor or f not in mor or gf not in mor:
                    raise DanglingReference(
                        f"{self.name}: composition entry ({g!r}, {f!r}) -> {gf!r} names unknown morphisms"
                    )
                if mor[f].target != mor[g].source:
                    raise DanglingReference(
                        f"{self.name}: pair ({g!r}, {f!r}) is not composable "
                        f"(target of {f!r} is {mor[f].target!r}, source of {g!r} is {mor[g].source!r})"
                    )
                if mor[gf].source != mor[f].source or mor[gf].target != mor[g].target:
                    raise IncompleteCompositionTable(
                        f"{self.name}: composite {gf!r} of ({g!r}, {f!r}) has wrong endpoints"
                    )
            for f in self.morphisms:
                for g in by_source[f.target]:
                    if (g, f.name) not in self.composition:
                        raise IncompleteCompositionTable(
                            f"{self.name}: missing composite for pair ({g!r}, {f.name!r})"
                        )

            # identity laws
            for f in self.morphisms:
                if self.composition[(self.identity[f.target], f.name)] != f.name:
                    raise BrokenIdentity(f"{self.name}: id o {f.name!r} != {f.name!r}")
                if self.composition[(f.name, self.identity[f.source])] != f.name:
                    raise BrokenIdentity(f"{self.name}: {f.name!r} o id != {f.name!r}")

            # associativity on every composable triple
            comp = self.composition
            for f in self.morphisms:
                for g in by_source[f.target]:
                    gf = comp[(g, f.name)]
                    for h in by_source[mor[g].target]:
                        if comp[(h, gf)] != comp[(comp[(h, g)], f.name)]:
                            raise NonAssociative(
                                f"{self.name}: h o (g o f) != (h o g) o f for "
                                f"(h, g, f) = ({h!r}, {g!r}, {f.name!r})"
                            )

        object.__setattr__(self, "_invertible", self._find_invertibles())

    def _find_invertibles(self) -> dict[str, str]:
        """Map each invertible morphism to its (unique) inverse."""
        inv: dict[str, str] = {}
        for m in self.morphisms:
            for g in self.hom(m.target, m.source):
                if (
                    self.composition[(g, m.name)] == self.identity[m.source]
                    and self.composition[(m.name, g)] == self.identity[m.target]
                ):
                    inv[m.name] = g
                    break
        return inv

    # -- accessors ----------------------------------------------------------

    def source(self, m: str) -> str:
        return self._mor[m].source

    def target(self, m: str) -> str:
        return self._mor[m].target

    def compose(self, g: str, f: str) -> str:
        return self.composition[(g, f)]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def morphisms_from(self, x: str) -> tuple[str, ...]:
        return self._by_source[x]

    def morphisms_to(self, x: str) -> tuple[str, ...]:
        return self._by_target[x]

    def is_identity(self, m: str) -> bool:
        return m in self._identity_names

    def is_invertible(self, m: str) -> bool:
        return m in self._invertible

    def inverse(self, m: str) -> str:
        return self._invertible[m]

    def morphism_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.morphisms)

    def has_object(self, x: str) -> bool:
        return x in self._by_source

    def require_object(self, x: str) -> None:
        if not self.has_object(x):
            raise UnknownObject(f"{self.name} has no object {x!r}")

    def __len__(self) -> int:
        return len(self.objects)


def validate(raw: Mapping, name: str = "C") -> FinCat:
    """Build and exhaustively validate a FinCat from plain data.

    Expected shape (the JSON payload of kind "category"):

        {"objects": [...],
         "morphisms": [{"id":..., "source":..., "target":...}, ...],
         "identity": {object: morphism_id, ...},
         "compose": [[g, f, gf], ...]}
    """
    try:
        objects = tuple(str(x) for x in raw["objects"])
        morphisms = tuple(
            Morphism(str(m["id"]), str(m["source"]), str(m["target"])) for m in raw["morphisms"]
        )
        identity = {str(k): str(v) for k, v in raw["identity"].items()}
        composition = {(str(g), str(f)): str(gf) for g, f, gf in raw.get("compose", [])}
    except (KeyError, TypeError, ValueError) as exc:
        raise DanglingReference(f"{name}: malformed category description ({exc})") from exc
    return FinCat(objects, morphisms, identity, composition, name=str(raw.get("name", name)))


# -- functors and natural isomorphisms ---------------------------------------


class NotAFunctor(ValidationError):
    """Object/morphism maps fail functoriality."""


class NotNatural(ValidationError):
    """Components fail naturality or invertibility."""


@dataclass(frozen=True, eq=False)
class CatFunctor:
    source: FinCat
    target: FinCat
    obj_map: Mapping[str, str]
    mor_map: Mapping[str, str]

    def __post_init__(self):
        src, tgt = self.source, self.target
        for x in src.objects:
            if x not in self.obj_map or not tgt.has_object(self.obj_map[x]):
                raise NotAFunctor(f"object map undefined or out of range at {x!r}")
        for m in src.morphisms:
            if m.name not in self.mor_map:
                raise NotAFunctor(f"morphism map undefined at {m.name!r}")
            fm = self.mor_map[m.name]
            if fm not in tgt._mor:
                raise NotAFunctor(f"image {fm!r} is not a morphism of {tgt.name}")
            if tgt.source(fm) != self.obj_map[m.source] or tgt.target(fm) != self.obj_map[m.target]:
                raise NotAFunctor(f"image of {m.name!r} has wrong endpoints")
        for x in src.objects:
            if self.mor_map[src.identity[x]] != tgt.identity[self.obj_map[x]]:
                raise NotAFunctor(f"identity of {x!r} not preserved")
        for (g, f), gf in src.composition.items():
            if tgt.compose(self.mor_map[g], self.mor_map[f]) != self.mor_map[gf]:
                raise NotAFunctor(f"composition not preserved on ({g!r}, {f!r})")

    def on_obj(self, x: str) -> str:
        return self.obj_map[x]

    def on_mor(self, m: str) -> str:
        return self.mor_map[m]

    def then(self, other: "CatFunctor") -> "CatFunctor":
        """Composite functor self ; other (apply self first)."""
        if other.source is not self.target:
            raise NotAFunctor("functors are not composable")
        return CatFunctor(
            self.source,
            other.target,
            {x: other.obj_map[y] for x, y in self.obj_map.items()},
            {m: other.mor_map[n] for m, n in self.mor_map.items()},
        )

    def same_maps_as(self, other: "CatFunctor") -> bool:
        return (
            dict(self.obj_map) == dict(other.obj_map)
            and dict(self.mor_map) == dict(other.mor_map)
        )

    @staticmethod
    def identity_functor(cat: FinCat) -> "CatFunctor":
        return CatFunctor(
            cat, cat, {x: x for x in cat.objects}, {m.name: m.name for m in cat.morphisms}
        )


@dataclass(frozen=True, eq=False)
class NatIso:
    """A natural isomorphism between two parallel functors.

    ``components[x]`` is a morphism F(x) -> G(x) of the target category,
    required to be invertible, with all naturality squares commuting.
    """

    f: CatFunctor
    g: CatFunctor
    components: Mapping[str, str]

    def __post_init__(self):
        if self.f.source is not self.g.source or self.f.target is not self.g.target:
            raise NotNatural("functors are not parallel")
        cat = self.f.source
        tgt = self.f.target
        for x in cat.objects:
            c = self.components.get(x)
            if c is None:
                raise NotNatural(f"no component at {x!r}")
            if tgt.source(c) != self.f.obj_map[x] or tgt.target(c) != self.g.obj_map[x]:
                raise NotNatural(f"component at {x!r} has wrong endpoints")
            if not tgt.is_invertible(c):
                raise NotNatural(f"component at {x!r} is not invertible")
        for m in cat.morphisms:
            lhs = tgt.compose(self.components[m.target], self.f.mor_map[m.name])
            rhs = tgt.compose(self.g.mor_map[m.name], self.components[m.source])
            if lhs != rhs:
                raise NotNatural(f"naturality fails at morphism {m.name!r}")

    def component(self, x: str) -> str:
        return self.components[x]


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
    """Compute structural predicates by exhaustive search."""
    is_scwol = all(
        cat.is_identity(m) for x in cat.objects for m in cat.hom(x, x)
    )
    is_ei = all(
        cat.is_invertible(m) for x in cat.objects for m in cat.hom(x, x)
    )
    is_groupoid = all(cat.is_invertible(m.name) for m in cat.morphisms)

    is_df = True
    for u in cat.morphisms:
        if not is_df:
            break
        for v in cat.hom(u.target, u.source):
            if cat.compose(v, u.name) == cat.identity[u.source]:
                if cat.compose(u.name, v) != cat.identity[u.target]:
                    is_df = False
                    break

    is_skeletal = all(
        not _isomorphic_objects(cat, x, y)
        for x, y in itertools.combinations(cat.objects, 2)
    )

    # connectivity under the zigzag relation
    if not cat.objects:
        is_connected = True
    else:
        seen = {cat.objects[0]}
        frontier = [cat.objects[0]]
        while frontier:
            x = frontier.pop()
            for m in cat.morphisms_from(x) + cat.morphisms_to(x):
                for y in (cat.source(m), cat.target(m)):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        is_connected = len(seen) == len(cat.objects)

    return PredicateReport(
        is_scwol=is_scwol,
        is_EI=is_ei,
        is_directly_finite=is_df,
        is_groupoid=is_groupoid,
        is_skeletal=is_skeletal,
        is_connected=is_connected,
    )


def _isomorphic_objects(cat: FinCat, x: str, y: str) -> bool:
    if x == y:
        return True
    return any(cat.is_invertible(m) for m in cat.hom(x, y))


# -- isomorphism classes and automorphism groups ------------------------------


@dataclass(frozen=True)
class IsoClasses:
    classes: tuple[tuple[str, ...], ...]
    representatives: tuple[str, ...]
    aut: Mapping[str, FinGroup]
    all_endos_invertible: Mapping[str, bool]

    def class_of(self, x: str) -> tuple[str, ...]:
        for cls in self.classes:
            if x in cls:
                return cls
        raise UnknownObject(f"no class contains {x!r}")

    def representative_of(self, x: str) -> str:
        return self.class_of(x)[0]


def iso_classes(cat: FinCat) -> IsoClasses:
    """Partition objects into isomorphism classes.

    The representative of each class is its lexicographically least object
    id.  The automorphism group at the representative is the group of
    invertible endomorphisms under composition (all endomorphisms, in an
    EI-category).
    """
    remaining = set(cat.objects)
    classes = []
    for x in sorted(cat.objects):
        if x not in remaining:
            continue
        cls = [y for y in sorted(remaining) if _isomorphic_objects(cat, x, y)]
        remaining.difference_update(cls)
        classes.append(tuple(cls))
    classes.sort(key=lambda c: c[0])

    aut = {}
    full = {}
    for cls in classes:
        rep = cls[0]
        endos = cat.hom(rep, rep)
        invertibles = tuple(m for m in endos if cat.is_invertible(m))
        full[rep] = len(invertibles) == len(endos)
        aut[rep] = FinGroup.from_mul(
            invertibles,
            lambda a, b: cat.compose(a, b),
            name=f"aut({rep})",
        )
    return IsoClasses(tuple(classes), tuple(c[0] for c in classes), aut, full)


# -- skeleton -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SkeletonData:
    category: FinCat
    inclusion: CatFunctor
    retraction: CatFunctor
    eta: NatIso  # inclusion o retraction => identity


def full_subcategory(cat: FinCat, objects: Iterable[str], name: str | None = None) -> FinCat:
    objs = tuple(x for x in cat.objects if x in set(objects))
    keep = set(objs)
    mors = tuple(m for m in cat.morphisms if m.source in keep and m.target in keep)
    names = {m.name for m in mors}
    comp = {
        (g, f): gf for (g, f), gf in cat.composition.items() if g in names and f in names
    }
    ident = {x: cat.identity[x] for x in objs}
    return FinCat(objs, mors, ident, comp, name=name or f"{cat.name}_full", check=False)


def skeleton(cat: FinCat) -> SkeletonData:
    """Full subcategory on iso-class representatives with retraction data.

    Returns (Gamma, i, r, eta) with r o i = id_Gamma and eta: i o r => id
    whose component at each representative is the identity.  The component
    at a non-representative x is the least-named isomorphism rep(x) -> x.
    """
    iso = iso_classes(cat)
    reps = iso.representatives
    gamma = full_subcategory(cat, reps, name=f"sk({cat.name})")
    inclusion = CatFunctor(
        gamma,
        cat,
        {x: x for x in gamma.objects},
        {m.name: m.name for m in gamma.morphisms},
    )

    eta_comp: dict[str, str] = {}
    rep_of: dict[str, str] = {}
    for cls in iso.classes:
        rep = cls[0]
        for x in cls:
            rep_of[x] = rep
            if x == rep:
                eta_comp[x] = cat.identity[x]
            else:
                eta_comp[x] = min(m for m in cat.hom(rep, x) if cat.is_invertible(m))

    r_obj = dict(rep_of)
    r_mor = {}
    for m in cat.morphisms:
        # conjugate f: x -> y into rep(x) -> rep(y)
        f_eta = cat.compose(m.name, eta_comp[m.source])
        r_mor[m.name] = cat.compose(cat.inverse(eta_comp[m.target]), f_eta)
    retraction = CatFunctor(cat, gamma, r_obj, r_mor)

    eta = NatIso(
        f=retraction.then(inclusion),
        g=CatFunctor.identity_functor(cat),
        components=eta_comp,
    )
    return SkeletonData(gamma, inclusion, retraction, eta)


# -- integer-indexed hom counts ------------------------------------------------


def _count_rows(cat: FinCat, transpose: bool = False) -> list[dict[int, int]]:
    """Sparse rows {j: |mor(x_i, x_j)|} of the hom-count matrix, indexed by
    the object order (or of its transpose); only non-zero counts are stored."""
    index = {x: i for i, x in enumerate(cat.objects)}
    rows: list[dict[int, int]] = [{} for _ in cat.objects]
    for m in cat.morphisms:
        i, j = index[m.source], index[m.target]
        if transpose:
            i, j = j, i
        row = rows[i]
        row[j] = row.get(j, 0) + 1
    return rows


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

    def start_sum(self, x: str) -> int:
        return sum((-1) ** n * c for n, c in enumerate(self.starts[x]))


def path_counts(cat: FinCat, n_max: Optional[int] = None) -> PathCounts:
    """Count composable paths of non-identity morphisms, per length and start.

    The input is replaced by its skeleton internally.  Counts come from a
    dynamic program over the skeleton's non-identity arrows: the number of
    paths of length n starting at x is the sum, over arrows x -> y, of
    those of length n - 1 starting at y, so each length costs one pass over
    the arrows.  A skeletal scwol has no cycle of arrows, so its paths visit
    distinct objects and stop before the object count; a longer path
    raises NotScwol, as does one longer than ``n_max``.
    """
    if not classify(cat).is_scwol:
        raise NotScwol(f"{cat.name} has a non-identity endomorphism")
    gamma = skeleton(cat).category
    objs = gamma.objects
    # a scwol's only endomorphisms are identities: the off-diagonal counts
    # are exactly the non-identity arrows
    rows = _count_rows(gamma)

    counts = [len(objs)]
    starts = [[1] for _ in objs]
    vec = [1] * len(objs)
    level = 1
    while True:
        vec = [sum(k * vec[j] for j, k in row.items() if j != i) for i, row in enumerate(rows)]
        total = sum(vec)
        if not total:
            break
        if n_max is not None and level > n_max:
            raise NotScwol(
                f"{cat.name}: path dimension exceeded cap {n_max}; "
                "non-nilpotent count matrix means the input is not a scwol"
            )
        if level >= len(objs):
            raise NotScwol(f"{cat.name}: a path of {level} arrows repeats an object")
        counts.append(total)
        for row, v in zip(starts, vec):
            row.append(v)
        level += 1

    return PathCounts(tuple(counts), {x: tuple(row) for x, row in zip(objs, starts)})


def nonidentity_paths(cat: FinCat, length: int) -> list[tuple[str, ...]]:
    """All composable tuples of ``length`` non-identity morphisms.

    Finite per length even for non-skeletal scwols (where the total number
    over all lengths is infinite and path_counts must skeletonize first).
    """
    if length == 0:
        return [()]
    paths = [
        (m.name,) for m in cat.morphisms if not cat.is_identity(m.name)
    ]
    for _ in range(length - 1):
        paths = [
            p + (n,)
            for p in paths
            for n in cat.morphisms_from(cat.target(p[-1]))
            if not cat.is_identity(n)
        ]
    return paths


def lower_link(cat: FinCat, obj: str) -> FinCat:
    """The scwol of non-identity morphisms out of ``obj``.

    Objects are the non-identity morphisms a with source obj; a morphism
    a -> b is a morphism u of the ambient scwol with u o a = b, recorded as
    the pair (u, a).
    """
    if not classify(cat).is_scwol:
        raise NotScwol(f"{cat.name} has a non-identity endomorphism")
    cat.require_object(obj)
    link_objs = tuple(
        m for m in cat.morphisms_from(obj) if not cat.is_identity(m)
    )

    def pair_name(u: str, a: str) -> str:
        return f"({u},{a})"

    mors = []
    comp = {}
    ident = {}
    u_of: dict[str, str] = {}
    for a in link_objs:
        for u in cat.morphisms_from(cat.target(a)):
            b = cat.compose(u, a)
            if b in link_objs:
                nm = pair_name(u, a)
                mors.append(Morphism(nm, a, b))
                u_of[nm] = u
                if cat.is_identity(u):
                    ident[a] = nm
    for m1 in mors:
        for m2 in mors:
            if m1.target == m2.source:
                comp[(m2.name, m1.name)] = pair_name(
                    cat.compose(u_of[m2.name], u_of[m1.name]), m1.source
                )
    return FinCat(link_objs, tuple(mors), ident, comp, name=f"Lk^{obj}({cat.name})")


# -- constructions used across the library ------------------------------------


def opposite(cat: FinCat) -> FinCat:
    mors = tuple(Morphism(m.name, m.target, m.source) for m in cat.morphisms)
    comp = {(f, g): gf for (g, f), gf in cat.composition.items()}
    # lawful by construction from a validated category
    return FinCat(cat.objects, mors, dict(cat.identity), comp, name=f"{cat.name}^op", check=False)


def product(a: FinCat, b: FinCat) -> FinCat:
    def po(x, y):
        return f"({x},{y})"

    objs = tuple(po(x, y) for x in a.objects for y in b.objects)
    mors = tuple(
        Morphism(po(m.name, n.name), po(m.source, n.source), po(m.target, n.target))
        for m in a.morphisms
        for n in b.morphisms
    )
    ident = {
        po(x, y): po(a.identity[x], b.identity[y]) for x in a.objects for y in b.objects
    }
    comp = {}
    for (g1, f1), c1 in a.composition.items():
        for (g2, f2), c2 in b.composition.items():
            comp[(po(g1, g2), po(f1, f2))] = po(c1, c2)
    return FinCat(objs, mors, ident, comp, name=f"{a.name}x{b.name}", check=False)


def equal_presentation(a: FinCat, b: FinCat) -> bool:
    """Literal equality of the underlying tables (used for round-trip tests)."""
    return (
        a.objects == b.objects
        and a.morphisms == b.morphisms
        and dict(a.identity) == dict(b.identity)
        and dict(a.composition) == dict(b.composition)
    )


def are_isomorphic(a: FinCat, b: FinCat) -> bool:
    """Decide isomorphism of two finite categories by backtracking search.

    Exponential in the worst case; intended for the small instances in tests
    and reports (a handful of objects, hom-sets with a few elements).
    """
    if len(a.objects) != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return False

    def obj_signature(cat: FinCat, x: str):
        out_prof = sorted(len(cat.hom(x, y)) for y in cat.objects)
        in_prof = sorted(len(cat.hom(y, x)) for y in cat.objects)
        return (out_prof, in_prof, len(cat.hom(x, x)))

    sig_a = {x: obj_signature(a, x) for x in a.objects}
    sig_b = {x: obj_signature(b, x) for x in b.objects}
    if sorted(map(str, sig_a.values())) != sorted(map(str, sig_b.values())):
        return False

    objs = sorted(a.objects, key=lambda x: str(sig_a[x]))

    def try_objects(i: int, omap: dict[str, str], used: set[str]) -> bool:
        if i == len(objs):
            return _find_morphism_bijection(a, b, omap)
        x = objs[i]
        for y in b.objects:
            if y in used or sig_b[y] != sig_a[x]:
                continue
            if any(
                len(a.hom(x0, x)) != len(b.hom(y0, y)) or len(a.hom(x, x0)) != len(b.hom(y, y0))
                for x0, y0 in omap.items()
            ):
                continue
            omap[x] = y
            used.add(y)
            if try_objects(i + 1, omap, used):
                return True
            del omap[x]
            used.discard(y)
        return False

    return try_objects(0, {}, set())


def _find_morphism_bijection(a: FinCat, b: FinCat, omap: Mapping[str, str]) -> bool:
    mors = [m.name for m in a.morphisms if not a.is_identity(m.name)]
    mmap: dict[str, str] = {
        a.identity[x]: b.identity[omap[x]] for x in a.objects
    }
    used = set(mmap.values())

    def ok(partial_new: str, m: str) -> bool:
        # every composable pair among mapped morphisms whose composite is
        # already mapped (or is m itself) must commute with the candidate
        for f, ff in list(mmap.items()) + [(m, partial_new)]:
            for g, gg in list(mmap.items()) + [(m, partial_new)]:
                if a.target(f) == a.source(g):
                    comp_a = a.compose(g, f)
                    if comp_a in mmap or comp_a == m:
                        want = mmap.get(comp_a, partial_new if comp_a == m else None)
                        if want is not None and b.compose(gg, ff) != want:
                            return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(mors):
            return True
        m = mors[i]
        for cand in b.hom(omap[a.source(m)], omap[a.target(m)]):
            if cand in used or b.is_identity(cand):
                continue
            if ok(cand, m):
                mmap[m] = cand
                used.add(cand)
                if backtrack(i + 1):
                    return True
                del mmap[m]
                used.discard(cand)
        return False

    return backtrack(0)
