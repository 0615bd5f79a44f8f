"""Group actions on scwols and everything downstream of them: quotient
scwols, complexes of groups, their homotopy colimits, skeletal reduction,
equivariant skeleta, transport groupoids, the chi theorems for associated
complexes, developability verdicts, and the lower-link formula.

An action must satisfy the two scwol-action axioms: no group element moves
the source of a non-identity morphism onto its target, and an element fixing
the source of a morphism fixes the morphism.  Inputs are validated and what
is derived from them is trusted: the quotient, each orbit arrow's one lift,
the complex of groups, the reduced and restricted actions and the transport
groupoid follow from a validated action by the axioms (arXiv:1007.3868;
Bridson-Haefliger III.C), so each is built unchecked (by ``errors._trusted``,
a category as arrays by ``fincat._stored``) and no function re-proves a
paper identity on its own output.  Each proof
is in the builder's docstring; the checks live in the tests as oracles.
The reports (``chi_theorems``, ``skeletal_reduction``, ``developability_check``)
compute their identities because the identities are what they report.

``ScwolAction`` is the one validator of an action: a G-set reaches it as an
action on the discrete scwol, each element is checked by the row functor
check behind ``CatFunctor``, and every rejection is a ``NotAnAction`` with a
witness.  An action keeps the arrays of each element, and everything
downstream reads them: orbits, fixers, carriers, the quotient's projection,
and the reduced and restricted actions, each r o g o i on arrays
(``_conjugated``); names are read and written only at the boundary.  Orbits
are named by their least members, and each lift and carrying element (some
g with g . x = y) is found by one helper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NoReturn, Optional, Sequence

from .errors import ValidationError, _trusted
from .eulerchar import _scwol_weights, chi_scwol
from .fincat import (
    CatFunctor,
    FinCat,
    NotAFunctor,
    SkeletonData,
    _Arrays,
    _OnFirstRead,
    _Rows,
    _check_functor_arrays,
    _composite_arrays,
    _count_rows,
    _identity_arrays,
    _is_thin,
    _iso_roots,
    _require_scwol,
    _retract,
    _rows_of,
    _stored,
    skeleton,
)
from .groups import FinGroup, GroupHom, _check_on_generators, _image_of
from .hocolim import MissingValue, PseudoDiagram, bar_spectrum, formula_value
from .ratlin import _chi_L_of_rows, _class_reps
from .zoo import arrow_category, discrete_category, one_object_category


class NotAnAction(ValidationError):
    """The data is not a group action: the base of every rejection by
    ``ScwolAction``, ``validate_action`` and ``transport_groupoid``."""


class NotAFunctorAction(NotAnAction):
    """Some group element does not act as a strictly invertible functor."""


class NotAHomomorphismAction(NotAnAction):
    """The assignment g -> (action of g) is not a group homomorphism."""


class AxiomIViolation(NotAnAction):
    """g . source(a) = target(a) for a non-identity morphism a."""

    def __init__(self, morphism: str, element: str):
        super().__init__(
            f"axiom (i) fails: element {element!r} sends the source of "
            f"{morphism!r} onto its target",
            witness={"morphism": morphism, "element": element},
        )


class AxiomIIViolation(NotAnAction):
    """g fixes source(a) but moves the non-identity morphism a."""

    def __init__(self, morphism: str, element: str):
        super().__init__(
            f"axiom (ii) fails: element {element!r} fixes the source of "
            f"{morphism!r} but moves the morphism",
            witness={"morphism": morphism, "element": element},
        )


def _check_homomorphism_law(group: FinGroup, perms: list[list[int]], points: Sequence[str],
                            what: str):
    """Require that the identity fixes each of ``points`` (``what``s, which
    ``perms[g]`` permutes by index, for the element of index g) and
    ``perms[gh] == perms[g] o perms[h]`` for every pair (g, h), one index row
    at a time at the generators h (``groups._check_on_generators``); a
    failure is located among all pairs, in order."""
    labels, mul = group.labels, group.table
    e = group._identity
    for i, j in enumerate(perms[e]):
        if i != j:
            raise NotAHomomorphismAction(
                f"identity element moves {'an' if what == 'object' else 'a'} {what}",
                witness={"element": labels[e], what: points[i]},
            )

    def locate() -> NoReturn:
        g, h, i = next((g, h, i) for g, perm_g in enumerate(perms) for h, perm_h in enumerate(perms)
                       for i, j in enumerate(perm_h) if perm_g[j] != perms[mul[g][h]][i])
        raise NotAHomomorphismAction(
            f"action of {labels[g]!r}{labels[h]!r} disagrees with action of "
            f"{labels[mul[g][h]]!r} on {points[i]!r}",
            witness={"pair": (labels[g], labels[h]), what: points[i]},
        )

    _check_on_generators(group, lambda h: all(
        perms[mul[g][h]] == list(map(perm_g.__getitem__, perms[h]))
        for g, perm_g in enumerate(perms)), locate)


def _permutation(g: str, table: Mapping[str, str], points: Sequence[str], index: Mapping,
                 level: str) -> list[int]:
    """The index array of ``table`` (element g on ``level``) on ``points``,
    which ``index`` numbers; NotAFunctorAction unless it permutes them."""
    try:
        perm = list(map(index.__getitem__, map(table.__getitem__, points)))
    except (KeyError, TypeError):
        perm = None
    if perm is None or len(table) != len(points) or len(set(perm)) != len(points):
        raise NotAFunctorAction(f"element {g!r} does not permute the {level}",
                                witness={"element": g, "level": level})
    return perm


@dataclass(frozen=True, eq=False)
class ScwolAction:
    """A finite group acting on a finite scwol, kept as the arrays of each
    element g (``_arrays``, in group order): the endofunctor of the space
    (``fincat._Arrays``) that the name tables ``on_objects[g]`` and
    ``on_morphisms[g]`` give.  Validation reads the tables into the arrays
    and checks that each element permutes the objects and the morphisms as
    a functor (by the row check of ``fincat._check_functor_arrays``), the
    homomorphism law against the Cayley table, and both scwol-action
    axioms, and last that no row is given for a label that is no element;
    each rejection has a witness.  On a thin space the homomorphism law is
    checked on objects only: g.(h.m) and (gh).m both run gh.s(m) -> gh.t(m),
    and no hom-set has two elements.  Given tables are kept; those of a
    derived action are views (``_OnFirstRead``), in space order."""

    group: FinGroup
    space: FinCat
    on_objects: Mapping[str, Mapping[str, str]] = _OnFirstRead()
    on_morphisms: Mapping[str, Mapping[str, str]] = _OnFirstRead()

    _arrays: list[_Arrays] = field(init=False, repr=False)

    def __post_init__(self):
        g_labels = self.group.labels
        cat = self.space
        _require_scwol(cat)
        r = _rows_of(cat)
        names, src, tgt = r.names, r.src, r.tgt

        # object level first: axiom (i) only needs the object action, and the
        # interesting rejections (e.g. swapping the endpoints of an arrow)
        # should be reported as axiom violations, not as functor breakage
        on_obj = []
        for g in g_labels:
            if g not in self.on_objects or g not in self.on_morphisms:
                raise NotAFunctorAction(f"no action data for element {g!r}", witness={"element": g})
            on_obj.append(_permutation(g, self.on_objects[g], cat.objects, r.objects, "objects"))
        _check_homomorphism_law(self.group, on_obj, cat.objects, "object")
        is_ident = set(r.ident)
        arrows = [k for k in range(len(names)) if k not in is_ident]
        images = list(zip(*on_obj))  # images[x][g]: g . x
        for k in arrows:
            if tgt[k] in images[src[k]]:
                raise AxiomIViolation(names[k], g_labels[images[src[k]].index(tgt[k])])

        # morphism level: each element acts as a strictly invertible functor
        thin = _is_thin(cat)
        on_mor = []
        for g, fo in zip(g_labels, on_obj):
            fm = _permutation(g, self.on_morphisms[g], names, r.index, "morphisms")
            try:
                _check_functor_arrays(r, r, fo, fm, thin)
            except NotAFunctor as exc:
                law, at = exc.witness["law"], exc.witness["at"]
                raise NotAFunctorAction(
                    f"element {g!r} breaks {law} at {at!r}", witness={"element": g, **exc.witness}
                ) from exc
            on_mor.append(fm)
        # on identities the law follows from the object level and functoriality;
        # on a thin space g.(h.m) and (gh).m both run gh.s(m) -> gh.t(m).  An
        # element maps identities to identities, so arrows to arrows.
        if not thin:
            pos = {k: i for i, k in enumerate(arrows)}
            _check_homomorphism_law(self.group, [[pos[fm[k]] for k in arrows] for fm in on_mor],
                                    [names[k] for k in arrows], "morphism")
        moved = list(zip(*on_mor))  # moved[k][g]: g . k
        for k in arrows:
            x = src[k]
            for g, (gx, gk) in enumerate(zip(images[x], moved[k])):
                if gx == x and gk != k:
                    raise AxiomIIViolation(names[k], g_labels[g])
        # every element has both rows, so a longer table has a stray row
        for table in (self.on_objects, self.on_morphisms):
            if len(table) != len(g_labels):
                label = next(g for g in table if g not in self.group)
                raise NotAFunctorAction(
                    f"action row {label!r} is not an element of {self.group.name}",
                    witness={"element": label},
                )
        self.__dict__["_arrays"] = list(zip(on_obj, on_mor))

    def _make(self, attr: str) -> None:
        """Store the table ``attr``, read off the arrays, on the instance."""
        self.__dict__[attr] = self._tables(attr == "on_morphisms")

    def _tables(self, level: int) -> dict[str, dict[str, str]]:
        """The name table of each element on the objects (``level`` 0) or
        the morphisms (1) of the space, in group and space order."""
        names = self.space.objects if level == 0 else self.space._named().names
        return {g: dict(zip(names, map(names.__getitem__, arrays[level])))
                for g, arrays in zip(self.group.labels, self._arrays)}

    # -- convenience -------------------------------------------------------

    def act_obj(self, g: str, x: str) -> str:
        return self.on_objects[g][x]

    def act_mor(self, g: str, m: str) -> str:
        return self.on_morphisms[g][m]

    def object_orbit(self, x: str) -> tuple[str, ...]:
        return tuple(sorted({self.act_obj(g, x) for g in self.group.labels}))

    def morphism_orbit(self, m: str) -> tuple[str, ...]:
        return tuple(sorted({self.act_mor(g, m) for g in self.group.labels}))

    def object_orbits(self) -> tuple[tuple[str, ...], ...]:
        return _named_orbits(self.space.objects, self._arrays, 0)

    def morphism_orbits(self) -> tuple[tuple[str, ...], ...]:
        return _named_orbits(self.space._named().names, self._arrays, 1)

    def is_free_on_objects(self) -> bool:
        only_identity = [self.group.identity]
        return all(_fixers(self, x) == only_identity for x in self.space.objects)


def _orbits(names: Sequence[str], arrays: Sequence[_Arrays], level: int):
    """The orbits of the points ``names`` under the permutations
    ``arrays[g][level]``, by index, each in name order, in the order of
    their least members, and the orbit of each point by its index."""
    orbits: dict[int, list[int]] = {}
    least = [-1] * len(names)  # the least member of each point's orbit
    for x in sorted(range(len(names)), key=names.__getitem__):
        if least[x] < 0:
            for arrays_g in arrays:
                least[arrays_g[level][x]] = x
        orbits.setdefault(least[x], []).append(x)
    at = {x: k for k, x in enumerate(orbits)}
    return list(orbits.values()), [at[x] for x in least]


def _named_orbits(names: Sequence[str], arrays: Sequence[_Arrays], level: int):
    return tuple(tuple(map(names.__getitem__, orb)) for orb in _orbits(names, arrays, level)[0])


def validate_action(raw: Mapping, group: FinGroup, space: FinCat) -> ScwolAction:
    """Build a ScwolAction from plain data (the JSON payload of kind "action")."""
    try:
        on_objects = _str_tables(raw["object_action"])
        on_morphisms = _str_tables(raw["morphism_action"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise NotAFunctorAction(
            f"malformed action description ({exc})", witness={"cause": str(exc)}
        ) from exc
    return ScwolAction(group, space, on_objects, on_morphisms)


def _str_tables(tables: Mapping) -> Mapping[str, Mapping[str, str]]:
    """An action table with every label read as a str (a JSON number id
    too): ``tables`` itself when every key and value already is one, as in
    a JSON manifest, else a copy.  A malformed table is copied, which
    raises as the copy's reads do."""
    try:
        types = set(map(type, tables))
        for table in tables.values():
            types.update(map(type, table))
            types.update(map(type, table.values()))
        if types <= {str}:
            return tables
    except (KeyError, TypeError, AttributeError):
        pass
    return {str(g): {str(x): str(y) for x, y in table.items()} for g, table in tables.items()}


def trivial_action(group: FinGroup, space: FinCat) -> ScwolAction:
    """Every element acting as the identity, lawful on every scwol: only the
    space is checked.  The elements share one pair of arrays."""
    _require_scwol(space)
    return _trusted(ScwolAction, group=group, space=space,
                    _arrays=[_identity_arrays(space)] * group.order)


# -- quotients ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuotientResult:
    """The quotient scwol and the orbit of each object and morphism: the
    maps of the projection, which is built as no functor.  ``_arrays`` is
    the projection on indices (``fincat._Arrays``): the quotient index of
    each object and morphism of the space."""

    category: FinCat
    object_orbit_of: Mapping[str, str]
    morphism_orbit_of: Mapping[str, str]
    _arrays: _Arrays = field(repr=False)


def quotient(action: ScwolAction) -> QuotientResult:
    """Quotient scwol: objects and morphisms are G-orbits, each named by its
    least member, with composition and identities induced from the space.

    The orbit of b o a is recorded for each pair (orbit of b, orbit of a).
    A validated action settles the rest, so nothing is checked:

    * the composite is well-defined: if (b', a') = (h.b, g.a) is another
      composable lift, g^-1 h fixes target(a) = source(b), so by axiom (ii)
      it fixes b, and b' o a' = g.(b o a) lies in the orbit of b o a;
    * the table is complete: for composable orbits [b], [a] some g carries
      target(a) onto source(b), and (b, g.a) is a composable lift;
    * the quotient is a scwol: an arrow of an orbit from [x] to itself has
      a lift a with g.source(a) = target(a), which axiom (i) forbids unless
      a is an identity; its laws are those of the space, projected.

    The same axioms give the source-side orbit bijection: two arrows out of
    x in one orbit differ by an element fixing x, hence agree (axiom ii),
    and translating a lift of an orbit arrow out of [x] by an element gives
    one out of x, so the row of the least member a of [a] holds one lift of
    each pair ([b], [a]); the entries are written in name order.  A lift
    b' o a = id of [b] o [a] = [id] makes a invertible in the space, a
    scwol, so the inverses are the orbits of the space's.  The orbits are
    read off the action's arrays (``_orbits``).
    """
    cat = action.space
    r = _rows_of(cat)
    objs, names = cat.objects, r.names
    (obj_orbits, of_obj), (mor_orbits, of_mor) = (_orbits(objs, action._arrays, 0),
                                                  _orbits(names, action._arrays, 1))
    lifts = [orb[0] for orb in mor_orbits]
    cells = {(of_mor[b], f): of_mor[ba] for f, a in enumerate(lifts) for b, ba in r.rows[a].items()}
    q = _stored(f"{cat.name}/{action.group.name}", [objs[orb[0]] for orb in obj_orbits],
                [names[a] for a in lifts], [of_obj[r.src[a]] for a in lifts],
                [of_obj[r.tgt[a]] for a in lifts],
                [of_mor[r.ident[orb[0]]] for orb in obj_orbits],
                [(b, f, ba) for (b, f), ba in sorted(cells.items())],
                ({f: of_mor[r.inv[a]] for f, a in enumerate(lifts) if a in r.inv}, True))
    return QuotientResult(q, {objs[x]: objs[orb[0]] for orb in obj_orbits for x in orb},
                          {names[m]: names[orb[0]] for orb in mor_orbits for m in orb},
                          (of_obj, of_mor))


def _fixers(action: ScwolAction, obj: str) -> list[str]:
    """The elements g with g . obj = obj, in group order, off the arrays."""
    x = action.space._named().objects[obj]
    return [g for g, (fo, _) in zip(action.group.labels, action._arrays) if fo[x] == x]


def stabilizer(action: ScwolAction, obj: str) -> FinGroup:
    """Isotropy subgroup {g : g . obj = obj} with the induced Cayley table."""
    action.space.require_object(obj)
    return action.group.subgroup(_fixers(action, obj), name=f"Stab({obj})")


# -- complexes of groups ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComplexOfGroups:
    """A group-valued pseudo functor over a scwol with injective structure maps.

    ``local[s]`` is the group at object s; ``homs[a]`` the injective
    homomorphism along the morphism a (identity morphisms carry identity
    homomorphisms); ``twists[(b, a)]`` the element of local[target(b)]
    conjugating homs[b] o homs[a] into homs[b o a].  The conjugation
    identity and the cocycle identity are verified for every composable
    pair and triple.
    """

    base: FinCat
    local: Mapping[str, FinGroup]
    homs: Mapping[str, GroupHom]
    twists: Mapping[tuple[str, str], str]

    def __post_init__(self):
        base = self.base
        _require_scwol(base)
        for x in base.objects:
            if x not in self.local:
                raise ValidationError(f"no local group at {x!r}", witness={"object": x})
        r = _rows_of(base)
        names, index, rows, src, tgt = r.names, r.index, r.rows, r.src, r.tgt
        local, ids = [self.local[x] for x in base.objects], set(r.ident)
        for m, name in enumerate(names):
            hom, at = self.homs.get(name), {"morphism": name}
            if hom is None:
                raise ValidationError(f"no structure homomorphism along {name!r}", witness=at)
            if hom.source is not local[src[m]] or hom.target is not local[tgt[m]]:
                raise ValidationError(f"homomorphism along {name!r} has wrong endpoints", witness=at)
            if not hom.is_injective():
                raise ValidationError(f"homomorphism along {name!r} is not injective", witness=at)
            if m in ids and any(hom(x) != x for x in hom.source.labels):
                raise ValidationError(f"identity morphism {name!r} carries a non-identity map",
                                      witness=at)

        # twist[(b, a)] is the index of the twist at the pair (b, a) of
        # morphism indices, img[m][i] that of the image of element i along m
        twist: dict[tuple[int, int], int] = {}
        unit_fault = False
        for (b, a), g in self.twists.items():
            bi, ai = index.get(b), index.get(a)
            if bi is None or ai is None or bi not in rows[ai]:
                raise ValidationError(f"twist given for non-composable pair ({b!r}, {a!r})",
                                      witness={"pair": (b, a)})
            group = local[tgt[bi]]
            if g not in group:
                raise ValidationError(
                    f"twist at ({b!r}, {a!r}) is not an element of the local group at "
                    f"{base.objects[tgt[bi]]!r}", witness={"pair": (b, a), "element": g},
                )
            twist[(bi, ai)] = group._index[g]
            unit_fault = unit_fault or (bi in ids or ai in ids) and g != group.identity
        # every key of twists is a composable pair, so fewer keys misses one;
        # a fault is located among the pairs in table order
        if unit_fault or len(twist) != sum(map(len, rows)):
            for bi, ai in r.pairs():
                b, a = names[bi], names[ai]
                if (b, a) not in self.twists:
                    raise ValidationError(f"no twist at composable pair ({b!r}, {a!r})",
                                          witness={"pair": (b, a)})
                g = self.twists[(b, a)]
                if (bi in ids or ai in ids) and g != local[tgt[bi]].identity:
                    raise ValidationError(f"unit twist at ({b!r}, {a!r}) must be trivial",
                                          witness={"pair": (b, a), "element": g})

        # conjugation identity (the 2-cell condition), on indices
        img = [_image_of(self.homs[m]) for m in names]
        for (bi, ai), gi in twist.items():
            table = local[tgt[bi]].table
            row_g, g_inv = table[gi], local[tgt[bi]]._inverse[gi]
            img_b, img_ba = img[bi], img[rows[ai][bi]]
            conjugated = [table[row_g[img_b[j]]][g_inv] for j in img[ai]]
            if conjugated != img_ba:
                b, a = names[bi], names[ai]
                x = next(x for x, c, want in zip(local[src[ai]].labels, conjugated, img_ba)
                         if c != want)
                raise ValidationError(f"conjugation identity fails at ({b!r}, {a!r}) on element {x!r}",
                                      witness={"pair": (b, a), "element": x})

        # cocycle identity on composable triples
        out = r.out()
        for a in range(len(names)):
            for b in out[tgt[a]]:
                ba = rows[a][b]
                tw_ba = twist[(b, a)]
                for c in out[tgt[b]]:
                    cb = rows[b][c]
                    table = local[tgt[c]].table
                    lhs = table[twist[(c, ba)]][img[c][tw_ba]]
                    rhs = table[twist[(cb, a)]][twist[(c, b)]]
                    if lhs != rhs:
                        triple = (names[c], names[b], names[a])
                        raise ValidationError(f"cocycle fails on triple {triple!r}",
                                              witness={"triple": triple})

    def twist(self, b: str, a: str) -> str:
        return self.twists[(b, a)]


def one_arrow_complex(g0: FinGroup, g1: FinGroup, hom: GroupHom) -> ComplexOfGroups:
    """A complex G0 -> G1 over the arrow scwol {0 -> 1}; ``ComplexOfGroups``
    rejects a ``hom`` whose endpoints are not G0 and G1."""
    base = arrow_category()
    homs = {
        base.identity["0"]: GroupHom.identity_hom(g0),
        base.identity["1"]: GroupHom.identity_hom(g1),
        "a": hom,
    }
    twists = {(b, a): g1.identity if base.target(b) == "1" else g0.identity
              for (b, a) in base.composition}
    return ComplexOfGroups(base, {"0": g0, "1": g1}, homs, twists)


@dataclass(frozen=True, eq=False)
class MorphismToGroup:
    """Components of the pseudo natural transformation from a complex of
    groups to the ambient group: chosen orbit representatives, lifts, and
    the conjugating elements h_a."""

    group: FinGroup
    representatives: Mapping[str, str]
    lifts: Mapping[str, str]
    h_elements: Mapping[str, str]


@dataclass(frozen=True, eq=False)
class ComplexFromAction:
    complex: ComplexOfGroups
    to_group: MorphismToGroup
    quotient: QuotientResult


def complex_of_groups(
    action: ScwolAction,
    object_reps: Optional[Mapping[str, str]] = None,
    h_elements: Optional[Mapping[str, str]] = None,
) -> ComplexFromAction:
    """The complex of groups associated to a scwol action.

    Defaults: the representative of each object orbit is its least member;
    h elements are the least-index group elements moving the target of the
    canonical lift onto the representative of the target orbit.  Both
    choices may be overridden (used by skeletal reduction to coordinate
    choices across a retraction); override validity is checked.
    """
    return _complex_from_quotient(action, quotient(action), object_reps, h_elements)


def _complex_from_quotient(
    action: ScwolAction,
    q: QuotientResult,
    object_reps: Optional[Mapping[str, str]],
    h_elements: Optional[Mapping[str, str]],
) -> ComplexFromAction:
    """``complex_of_groups`` on the quotient ``q`` of the same action: the
    overrides are checked by name and read into indices for
    ``_complex_from_choices``."""
    base = q.category
    group = action.group
    object_reps, h_elements = object_reps or {}, h_elements or {}
    qr, r = _rows_of(base), _rows_of(action.space)
    for orbit_name in object_reps:
        if not base.has_object(orbit_name):
            raise ValidationError(
                f"override representative given for {orbit_name!r}, "
                f"which is no orbit of {base.name}",
                witness={"object": orbit_name},
            )
    for m, h in h_elements.items():
        if m not in qr.index:
            raise ValidationError(
                f"override h element given for {m!r}, which is no morphism of {base.name}",
                witness={"morphism": m},
            )
        if h not in group:
            raise ValidationError(
                f"override h element {h!r} at {m!r} is not an element of {group.name}",
                witness={"morphism": m, "element": h},
            )

    # an orbit is named by its least member, the default representative
    reps = []
    for s, orbit_name in enumerate(base.objects):
        chosen = object_reps.get(orbit_name, orbit_name)
        x = r.objects.get(chosen)
        if x is None or q._arrays[0][x] != s:
            raise ValidationError(
                f"override representative {chosen!r} does not project to {orbit_name!r}",
                witness={"object": orbit_name, "representative": chosen},
            )
        reps.append(x)
    h = [None if m not in h_elements else group._index[h_elements[m]] for m in qr.names]
    return _complex_from_choices(action, q, reps, h)


def _complex_from_choices(action: ScwolAction, q: QuotientResult, reps: list[int],
                          h: list[Optional[int]]) -> ComplexFromAction:
    """The complex of ``action`` over ``q`` with the representative
    ``reps[s]`` of each orbit s and the h element ``h[m]`` (None: the least
    that fits) of each orbit arrow, by index.  Each orbit arrow out of a
    representative has one lift there (the source-side orbit bijection of
    ``quotient``), so no count is checked.  The complex is unchecked:
    conjugations by h, with h = e at identities, satisfy its identities."""
    base, cat, group = q.category, action.space, action.group
    qr, r = _rows_of(base), _rows_of(cat)
    labels, table, inverse, index = group.labels, group.table, group._inverse, group._index
    local = [stabilizer(action, cat.objects[x]) for x in reps]

    ids, lift_at = set(qr.ident), _lifts(q, r)
    lifts, h_idx = {}, []
    for m, (name, x, y) in enumerate(zip(qr.names, qr.src, qr.tgt)):
        lift = lift_at[reps[x], m]
        lifts[name] = r.names[lift]
        wanted = h[m]
        if m in ids:
            if wanted not in (None, group._identity):
                raise ValidationError(f"override h element {labels[wanted]!r} at identity morphism "
                                      f"{name!r} is not the group identity",
                                      witness={"morphism": name, "element": labels[wanted]})
            wanted = group._identity
        if wanted is None:
            wanted = _carrier(action, r.tgt[lift], reps[y])
        elif action._arrays[wanted][0][r.tgt[lift]] != reps[y]:
            raise ValidationError(
                f"override h element {labels[wanted]!r} does not carry the lift target onto "
                f"{cat.objects[reps[y]]!r}", witness={"morphism": name, "element": labels[wanted]},
            )
        h_idx.append(wanted)

    homs = {}
    for name, x, y, g in zip(qr.names, qr.src, qr.tgt, h_idx):
        # conjugation happens in the ambient group; an element fixing the
        # lift's source fixes the lift and hence its target, so conjugating
        # by g lands in the stabilizer of the target representative
        row_g, g_inv = table[g], inverse[g]
        homs[name] = _trusted(
            GroupHom, source=local[x], target=local[y],
            mapping={a: labels[table[row_g[index[a]]][g_inv]] for a in local[x].labels},
        )
    # twist(b, a) = h_ba . h_a^-1 . h_b^-1, in the quotient's entry order
    twists = {}
    for b, a in qr.pairs():
        h_ba = h_idx[qr.rows[a][b]]
        twists[(qr.names[b], qr.names[a])] = labels[table[h_ba][table[inverse[h_idx[a]]][inverse[h_idx[b]]]]]

    objs = base.objects
    cplx = _trusted(ComplexOfGroups, base=base, local=dict(zip(objs, local)), homs=homs, twists=twists)
    to_group = MorphismToGroup(group, {s: cat.objects[x] for s, x in zip(objs, reps)}, lifts,
                               {m: labels[g] for m, g in zip(qr.names, h_idx)})
    return ComplexFromAction(cplx, to_group, q)


def _lifts(q: QuotientResult, r: _Rows) -> dict[tuple[int, int], int]:
    """(x, orbit) to the one morphism of the space (whose rows are ``r``) out
    of x in that orbit of ``q``, by index (see ``quotient``)."""
    return {(x, orbit): a for a, (orbit, x) in enumerate(zip(q._arrays[1], r.src))}


def _carrier(action: ScwolAction, x: int, y: int) -> int:
    """The least group index g with g . x = y, on object indices."""
    return next(g for g, (fo, _) in enumerate(action._arrays) if fo[x] == y)


# -- homotopy colimit of a complex of groups -------------------------------------


def hocolim_groups(cplx: ComplexOfGroups) -> FinCat:
    """Homotopy colimit of a complex of groups, built directly.

    Objects are the base objects; a morphism s -> t is a pair (a, g) with
    a: s -> t in the base and g in local[t], composed by
    (b, g2) o (a, g1) = (b o a, g2 . F(b)(g1) . twist(b, a)^{-1}).
    The complex's identities make it lawful (Bridson-Haefliger III.C): no law is checked.
    It is written off the base's rows and the local Cayley tables.
    """
    base = cplx.base
    r = _rows_of(base)
    names, out = r.names, r.out()
    local = [cplx.local[x] for x in base.objects]
    start, mor_names, src, tgt = [], [], [], []  # start[a]: the index of (a, first g)
    for a, (name, x, y) in enumerate(zip(names, r.src, r.tgt)):
        start.append(len(mor_names))
        mor_names += [f"({name},{g})" for g in local[y].labels]
        src += [x] * local[y].order
        tgt += [y] * local[y].order

    def entries():
        # on indices: for each g1, k is the index of F(b)(g1) . twist(b, a)^-1,
        # and the composite with (b, g2) is (b o a, g2 . k), read off row g2
        for a, row_a in enumerate(r.rows):
            for b in out[r.tgt[a]]:
                group = local[r.tgt[b]]
                table, first_b, first_ba = group.table, start[b], start[row_a[b]]
                tw_inv = group._inverse[group.index(cplx.twist(names[b], names[a]))]
                for f, fb_g1 in enumerate(_image_of(cplx.homs[names[b]]), start[a]):
                    k = table[fb_g1][tw_inv]
                    for g2, row_g2 in enumerate(table):
                        yield first_b + g2, f, first_ba + row_g2[k]

    return _stored(f"hocolim({base.name})", base.objects, mor_names, src, tgt,
                   [start[e] + local[x]._identity for x, e in enumerate(r.ident)], entries())


def _hocolim_chi_L(cplx: ComplexOfGroups) -> Fraction:
    """``chi_L(hocolim_groups(cplx))`` from hom counts, with no total built:
    |Hom(s, t)| is |local[t]| per a: s -> t, and (a, g) is invertible exactly
    when a is, so the iso classes are the base's.  The name is the total's,
    and so is every message and witness."""
    base = cplx.base
    orders = [cplx.local[x].order for x in base.objects]
    rows = [{t: count * orders[t] for t, count in row.items()} for row in _count_rows(base)]
    return _chi_L_of_rows(rows, _class_reps(base), f"hocolim({base.name})")


def complex_to_pseudo_diagram(cplx: ComplexOfGroups):
    """Reinterpret a complex of groups as a pseudo diagram of one-object
    categories, for the generic Grothendieck construction; unchecked, as the
    complex's identities are the pseudo diagram's."""
    base = cplx.base
    vertex = {x: one_object_category(cplx.local[x], obj="*") for x in base.objects}
    edge = {}
    for m, x, y in base._arrows():
        # the morphisms of a one-object category are its group's elements, in order
        edge[m] = _trusted(CatFunctor, source=vertex[x], target=vertex[y],
                           _arrays=([0], _image_of(cplx.homs[m])))
    comp = {pair: {"*": tw} for pair, tw in cplx.twists.items()}
    unit = {x: {"*": cplx.local[x].identity} for x in base.objects}
    return _trusted(PseudoDiagram, index=base, vertex=vertex, edge=edge, comp=comp, unit=unit)


# -- skeletal reduction and the equivariant skeleton ------------------------------


@dataclass(frozen=True)
class ReductionReport:
    retraction_equivariant: bool
    quotient_square_commutes: bool
    quotient_map_is_equivalence: bool
    stabilizers_preserved: bool
    complexes_agree: bool
    hocolims_equal_chi: bool
    freeness_preserved: bool

    def all_hold(self) -> bool:
        return all(
            (
                self.retraction_equivariant,
                self.quotient_square_commutes,
                self.quotient_map_is_equivalence,
                self.stabilizers_preserved,
                self.complexes_agree,
                self.hocolims_equal_chi,
                self.freeness_preserved,
            )
        )


@dataclass(frozen=True, eq=False)
class SkeletalReduction:
    action: ScwolAction
    retraction: CatFunctor
    inclusion: CatFunctor
    report: ReductionReport


def skeletal_reduction(action: ScwolAction) -> SkeletalReduction:
    """Replace an action on a scwol by an action on its skeleton.

    The induced action of g on the skeleton is r o (g . -) o i, unchecked
    (r sends isomorphisms to identities; axiom (i) lifts through r), as is rbar.
    The report re-verifies, instance by instance: equivariance of r, the
    commuting quotient square with its induced equivalence, stabilizer
    preservation, literal agreement of the two associated complexes of groups
    under coordinated choices, equality of chi_L of the two homotopy colimits
    (from their hom counts) and preservation of freeness on objects, on arrays.
    """
    sk = skeleton(action.space)
    r, ra, reduced = sk.retraction, sk.retraction._arrays, _conjugated(action, sk)

    # (1) r is G-equivariant: r o g == g o r, on arrays
    equivariant = all(_composite_arrays(a, ra) == _composite_arrays(ra, b)
                      for a, b in zip(action._arrays, reduced._arrays))

    # (2) induced functor on quotients commutes with projections and is an
    # equivalence: rbar o px == pg o r holds for some rbar when each orbit of
    # X has one image orbit, and px is onto
    qx = quotient(action)
    qg = quotient(reduced)
    images = _composite_arrays(ra, qg._arrays)
    descended = [dict(zip(p, img)) for p, img in zip(qx._arrays, images)]
    square = all(list(map(h.__getitem__, p)) == img
                 for h, p, img in zip(descended, qx._arrays, images))
    if square:
        rbar = _trusted(CatFunctor, source=qx.category, target=qg.category,
                        _arrays=tuple([h[k] for k in range(len(h))] for h in descended))
        surjective = len(set(rbar._arrays[0])) == len(qg.category)
        is_equivalence = surjective and _fully_faithful(qx.category, qg.category, rbar)
    else:
        rbar = None
        is_equivalence = False

    # (3) the inclusion preserves stabilizers, compared as member lists
    stab_ok = all(_fixers(action, x) == _fixers(reduced, x) for x in reduced.space.objects)

    # (4) the associated complexes agree under coordinated choices
    complexes_agree = False
    fx = fg = None
    if rbar is not None:
        fx_choices, fg_choices = _coordinated_choices(action, r, qx, rbar)
        fx = _complex_from_choices(action, qx, *fx_choices)
        fg = _complex_from_choices(reduced, qg, *fg_choices)
        complexes_agree = _complexes_agree_along(fx.complex, fg.complex, rbar)

    # (5) the homotopy colimits have equal chi_L
    if fx is not None and fg is not None:
        hocolims_equal = _hocolim_chi_L(fx.complex) == _hocolim_chi_L(fg.complex)
    else:
        hocolims_equal = False

    # (6) freeness on objects is preserved
    freeness = (not action.is_free_on_objects()) or reduced.is_free_on_objects()

    report = ReductionReport(
        retraction_equivariant=equivariant,
        quotient_square_commutes=square,
        quotient_map_is_equivalence=is_equivalence,
        stabilizers_preserved=stab_ok,
        complexes_agree=complexes_agree,
        hocolims_equal_chi=hocolims_equal,
        freeness_preserved=freeness,
    )
    return SkeletalReduction(reduced, r, sk.inclusion, report)


def _conjugated(action: ScwolAction, sk: SkeletonData) -> ScwolAction:
    """The action r o g o i on the category of ``sk`` (inclusion i, retraction
    r), unchecked: the reduced and the restricted action (see their callers)."""
    i, r = sk.inclusion._arrays, sk.retraction._arrays
    return _trusted(ScwolAction, group=action.group, space=sk.category,
                    _arrays=[_composite_arrays(_composite_arrays(i, a), r) for a in action._arrays])


def _fully_faithful(a: FinCat, b: FinCat, fun: CatFunctor) -> bool:
    """Whether ``fun``: a -> b is fully faithful, off the endpoint arrays:
    each Hom(x, y) has as many morphisms and images as Hom(F(x), F(y))."""
    ea, eb, (image, mor_image) = a._ends, b._ends, fun._arrays
    count_a, count_b = Counter(zip(ea.src, ea.tgt)), Counter(zip(eb.src, eb.tgt))
    mapped = set(zip(ea.src, ea.tgt, mor_image))
    objects = range(len(a))
    return Counter((x, y) for x, y, _ in mapped) == count_a and all(
        count_a[x, y] == count_b[image[x], image[y]] for x in objects for y in objects)


def _coordinated_choices(action: ScwolAction, r: CatFunctor, qx: QuotientResult,
                         rbar: CatFunctor):
    """Choices making the complexes over X/G and over the skeleton agree,
    as the arguments of ``_complex_from_choices`` for each side.

    Follows the retraction r, by its arrays: take the skeleton of
    X/G; the selected preimage of an orbit is the target of the unique lift,
    from the least preimage of its skeletal representative, of the unique
    isomorphism eta between them; h elements are chosen on skeletal
    morphisms, shared along the skeleton's retraction (the normal form of
    each morphism) and transported through rbar.
    """
    rows = _rows_of(action.space)
    qsk, qrows = skeleton(qx.category), _rows_of(qx.category)
    (rep_of, normal_form), (incl_obj, incl_mor) = qsk.retraction._arrays, qsk.inclusion._arrays
    lift_at = _lifts(qx, rows)
    # an orbit is named by its least member
    least = [rows.objects[s] for s in qx.category.objects]
    eta = [qrows.index[qsk.eta[s]] for s in qx.category.objects]

    # selected preimage per orbit object of X/G
    sel = [rows.tgt[lift_at[least[incl_obj[rep_of[s]]], eta[s]]] for s in range(len(least))]

    # h elements: chosen on skeletal morphisms, shared along normal forms
    skel = qsk.category._ends
    units = set(skel.ident)
    h_on_skel = [action.group._identity if m in units else
                 _carrier(action, rows.tgt[lift_at[sel[incl_obj[x]], incl_mor[m]]], sel[incl_obj[y]])
                 for m, (x, y) in enumerate(zip(skel.src, skel.tgt))]
    h_x = [h_on_skel[nf] for nf in normal_form]

    # transport through rbar for the reduced action: every object/morphism
    # of Gamma/G is the rbar-image of a unique skeletal object/morphism
    rbar_obj, rbar_mor = rbar._arrays
    sel_g, h_g = [0] * len(rbar.target), [0] * len(rbar.target._ends.src)
    for s in incl_obj:
        sel_g[rbar_obj[s]] = r._arrays[0][sel[s]]
    for m, h in enumerate(h_on_skel):
        h_g[rbar_mor[incl_mor[m]]] = h
    return (sel, h_x), (sel_g, h_g)


def _complexes_agree_along(fx: ComplexOfGroups, fg: ComplexOfGroups, rbar: CatFunctor) -> bool:
    """Whether ``fx`` and ``fg`` have the same local groups (as element
    sets), structure maps and twists along rbar, by its arrays."""
    (ro, rm), xr = rbar._arrays, _rows_of(fx.base)
    objs, names, xn = fg.base.objects, _rows_of(fg.base).names, xr.names
    return (all(set(fx.local[x].labels) == set(fg.local[objs[i]].labels)
                for x, i in zip(fx.base.objects, ro))
            and all(dict(fx.homs[m].mapping) == dict(fg.homs[names[i]].mapping) for m, i in zip(xn, rm))
            and all(fg.twists[(names[rm[b]], names[rm[a]])] == fx.twists[(xn[b], xn[a])]
                    for b, a in xr.pairs()))


@dataclass(frozen=True, eq=False)
class EquivariantSkeleton:
    action: ScwolAction
    inclusion: CatFunctor
    retraction: CatFunctor
    eta: Mapping[str, str]  # components of inclusion o retraction => identity
    inclusion_equivariant: bool
    eta_equivariant: bool


def equivariant_skeleton(action: ScwolAction) -> EquivariantSkeleton:
    """A skeleton chosen orbit-by-orbit so its inclusion is G-equivariant.

    In each G-orbit of isomorphism classes, the least object of the least
    class represents that class, and its images under the action represent
    the other classes of the orbit.  This section is well-defined with no
    check: were g.x isomorphic to x but not x, g would send the source of
    that isomorphism onto its target, which axiom (i) forbids, so the
    elements carrying x into one class carry it to one object.  The shared
    builder ``fincat._retract`` (also behind ``skeleton``) turns this choice
    into the category sk_G(X), the inclusion, the retraction and eta; eta
    then satisfies eta_{g.x} = g . eta_x, because isomorphisms in a scwol
    are unique.  G carries the section onto itself, so the restriction is
    r o g o i, unchecked.  Both equivariances are read off the arrays.
    """
    cat = action.space
    objs, r = cat.objects, _rows_of(cat)

    # G acts on iso classes (by their least indices, ``_iso_roots``), met in
    # the order of their least objects: the first class met of each orbit is
    # its least, and its least object is pushed forward along the action
    root, section = _iso_roots(cat), {}
    for x in sorted(range(len(objs)), key=objs.__getitem__):
        if root[x] not in section:
            for fo, _ in action._arrays:
                section[root[fo[x]]] = fo[x]

    sk = _retract(cat, {x: objs[section[k]] for x, k in zip(objs, root)}, f"sk_G({cat.name})")
    restricted = _conjugated(action, sk)
    kept, eta = sk.inclusion._arrays[0], [r.index[sk.eta[x]] for x in objs]
    in_gamma = set(kept)
    incl_equivariant = all(fo[x] in in_gamma for fo, _ in action._arrays for x in kept)
    eta_equivariant = all(fm[eta[x]] == eta[fo[x]] for fo, fm in action._arrays
                          for x in range(len(objs)))
    return EquivariantSkeleton(
        restricted, sk.inclusion, sk.retraction, sk.eta, incl_equivariant, eta_equivariant
    )


# -- transport groupoids -----------------------------------------------------------


def transport_groupoid(group: FinGroup, elements: Sequence[str],
                       act: Mapping[str, Mapping[str, str]]) -> FinCat:
    """Transport groupoid of a finite left G-set.

    Objects are the set elements; the morphisms s1 -> s2 are the group
    elements g with g . s1 = s2, composed by group multiplication.  The
    table ``act`` is validated once, as a ``ScwolAction`` on the discrete
    scwol on ``elements``, so a table that is not an action raises a
    ``NotAnAction``; ``_transport_groupoid`` builds the groupoid.
    """
    disc = discrete_category(tuple(elements), name="S")
    # a name outside the set maps to itself here; ScwolAction rejects its row
    # at the object level before it reads these morphism rows, and a row for
    # a label that is no element after every other check
    rows = {g: dict(row) for g, row in act.items()}
    disc_id = disc.identity
    return _transport_groupoid(ScwolAction(
        group,
        disc,
        rows,
        {g: {disc_id.get(s, s): disc_id.get(t, t) for s, t in row.items()}
         for g, row in rows.items()},
    ))


def _transport_groupoid(action: ScwolAction) -> FinCat:
    """Transport groupoid of the objects of a validated action, a G-set,
    read off its object arrays.  It is built with no law check: the G-set
    law (hg) . s = h . (g . s) gives each composite its endpoints, e . s = s
    gives the identities, and the group's Cayley table gives the unit and
    associativity laws."""
    group, elements = action.group, action.space.objects
    # the morphism (g, s) is number s * |G| + g, elements and labels by index
    n = group.order
    moved = list(zip(*(fo for fo, _ in action._arrays)))  # moved[s][g]: g . s
    # (h, g . s) o (g, s) = (hg, s), and (g, s) has the inverse (g^-1, g . s)
    return _stored(f"transport({group.name})", elements,
                   [f"({g},{s})" for s in elements for g in group.labels],
                   [k for k in range(len(elements)) for _ in range(n)],
                   [mid for targets in moved for mid in targets],
                   [k * n + group._identity for k in range(len(elements))],
                   ((mid * n + h, k * n + g, k * n + row_h[g]) for k, targets in enumerate(moved)
                    for g, mid in enumerate(targets) for h, row_h in enumerate(group.table)),
                   ({k * n + g: mid * n + group._inverse[g] for k, targets in enumerate(moved)
                     for g, mid in enumerate(targets)}, True))


# -- the chi theorems ----------------------------------------------------------------


@dataclass(frozen=True)
class ChiTheoremsReport:
    chi_space: int
    chi_quotient: int
    free_on_objects: bool
    free_quotient_law: Optional[bool]
    chi2_hocolim_formula_route: Fraction
    chi2_hocolim_direct_route: Fraction
    chi2_equals_chi_over_order: bool
    chi_hocolim: int
    chi_hocolim_equals_chi_quotient: bool

    def all_hold(self) -> bool:
        return (
            (self.free_quotient_law is not False)
            and self.chi2_equals_chi_over_order
            and self.chi_hocolim_equals_chi_quotient
            and self.chi2_hocolim_formula_route == self.chi2_hocolim_direct_route
        )


def chi_theorems(action: ScwolAction) -> ChiTheoremsReport:
    """Verify the Euler-characteristic laws of a finite scwol action.

    Checks, exactly: chi(X/G) = chi(X)/|G| when the object action is free;
    chi2(hocolim F) = chi(X)/|G| computed both via the quotient's cell
    spectrum with values 1/|stabilizer| and via chi_L of the homotopy colimit
    from its hom counts; and chi(hocolim F) = chi(X/G) via the all-ones values.
    """
    from_action = complex_of_groups(action)
    q = from_action.quotient
    chi_x = chi_scwol(action.space)
    chi_q = chi_scwol(q.category)
    order = action.group.order

    free = action.is_free_on_objects()
    free_law = (Fraction(chi_x, order) == chi_q) if free else None

    spectrum = bar_spectrum(q.category)
    inv_stab = {
        s: Fraction(1, from_action.complex.local[s].order)
        for s in q.category.objects
    }
    formula_route = formula_value(spectrum, inv_stab)
    direct_route = _hocolim_chi_L(from_action.complex)
    ones_route = formula_value(spectrum, {s: Fraction(1) for s in q.category.objects})

    return ChiTheoremsReport(
        chi_space=chi_x,
        chi_quotient=chi_q,
        free_on_objects=free,
        free_quotient_law=free_law,
        chi2_hocolim_formula_route=formula_route,
        chi2_hocolim_direct_route=direct_route,
        chi2_equals_chi_over_order=(direct_route == Fraction(chi_x, order)),
        chi_hocolim=int(ones_route),
        chi_hocolim_equals_chi_quotient=(ones_route == chi_q),
    )


# -- developability -------------------------------------------------------------------


@dataclass(frozen=True)
class DevelopabilityCandidate:
    chi_space: int
    group_order: int
    verdict: str  # "PASS" | "FAIL"


@dataclass(frozen=True)
class DevelopabilityReport:
    chi2_hocolim: Fraction
    candidates: tuple[DevelopabilityCandidate, ...]

    def all_pass(self) -> bool:
        return all(c.verdict == "PASS" for c in self.candidates)


def developability_check(
    cplx: ComplexOfGroups, candidates: Sequence[tuple[int, int]]
) -> DevelopabilityReport:
    """Necessary condition for developing a complex from (X, G): the
    L2-Euler characteristic r of its homotopy colimit, read off its hom
    counts, must satisfy chi(X) = r * |G| exactly (so r * |G| must be an
    integer of the right sign)."""
    r = _hocolim_chi_L(cplx)
    results = []
    for chi_space, order in candidates:
        if order <= 0:
            raise ValidationError("group order must be positive", witness={"order": order})
        verdict = "PASS" if Fraction(chi_space) == r * order else "FAIL"
        results.append(DevelopabilityCandidate(chi_space, order, verdict))
    return DevelopabilityReport(r, tuple(results))


# -- Haefliger's lower-link formula -----------------------------------------------------


def haefliger_chi(cat: FinCat, vals: Mapping[str, Fraction]) -> Fraction:
    """sum_i (1 - chi(B Lk^i)) . vals(i) over a finite scwol, skeletonized.

    ``vals[i]`` is the user-supplied Euler characteristic of the classifying
    space of the local group at i (1 for trivial groups).  Every key must
    name an object, and isomorphic objects must carry equal values: the sum
    reads the value at each skeleton representative.  Each 1 - chi(B Lk^i)
    is the alternating count of paths starting at i, the identity the
    formula's proof rests on, and that count is the skeleton's integer
    weight at i (``eulerchar._scwol_weights``: the diagonal is 1, so the
    weights need no denominator).  No lower link is built.  The skeleton
    object isomorphic to each object is found on ``_ends``.
    """
    gamma, nums = _scwol_weights(cat)
    objs = cat.objects
    rep_of = {objs[x]: objs[y] for x, y in cat._ends.invertible_ends() if gamma.has_object(objs[y])}
    for x in vals:
        cat.require_object(x)
        if gamma.has_object(x):
            continue
        rep = rep_of[x]
        if rep in vals and Fraction(vals[rep]) != Fraction(vals[x]):
            raise ValidationError(
                f"isomorphic objects {rep!r} and {x!r} carry different values "
                f"{vals[rep]} and {vals[x]}",
                witness={"objects": (rep, x), "values": (vals[rep], vals[x])},
            )
    total = Fraction(0)
    for i, weight in zip(gamma.objects, nums):
        if i not in vals:
            raise MissingValue(f"no local value supplied at {i!r}", witness={"object": i})
        total += weight * Fraction(vals[i])
    return total
