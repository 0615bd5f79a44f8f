"""Group actions on scwols and everything downstream of them: quotient
scwols, complexes of groups, their homotopy colimits, skeletal reduction,
equivariant skeleta, transport groupoids, the chi theorems for associated
complexes, developability verdicts, and the lower-link formula.

An action must satisfy the two scwol-action axioms: no group element moves
the source of a non-identity morphism onto its target, and an element fixing
the source of a morphism fixes the morphism.  Together these make orbits,
quotients, and stabilizer bookkeeping behave; every consequence used here is
re-verified at run time rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import EulcatError, InvariantViolation, ValidationError
from .eulerchar import chi_scwol
from .fincat import (
    CatFunctor,
    FinCat,
    Morphism,
    NatIso,
    NotScwol,
    classify,
    full_subcategory,
    iso_classes,
    lower_link,
    path_counts,
    skeleton,
)
from .groups import FinGroup, GroupHom
from .hocolim import CellSpectrum, bar_spectrum, formula_value
from .ratlin import chi_L


class NotAFunctorAction(ValidationError):
    """Some group element does not act as a strictly invertible functor."""


class NotAHomomorphismAction(ValidationError):
    """The assignment g -> (action of g) is not a group homomorphism."""


class AxiomIViolation(ValidationError):
    """g . source(a) = target(a) for a non-identity morphism a."""

    def __init__(self, morphism: str, element: str):
        super().__init__(
            f"axiom (i) fails: element {element!r} sends the source of "
            f"{morphism!r} onto its target"
        )
        self.morphism = morphism
        self.element = element


class AxiomIIViolation(ValidationError):
    """g fixes source(a) but moves the non-identity morphism a."""

    def __init__(self, morphism: str, element: str):
        super().__init__(
            f"axiom (ii) fails: element {element!r} fixes the source of "
            f"{morphism!r} but moves the morphism"
        )
        self.morphism = morphism
        self.element = element


class InvalidQuotient(EulcatError):
    """Internal consistency failure while forming a quotient scwol."""


class NotAnAction(ValidationError):
    """A purported G-set action table is not an action."""


@dataclass(frozen=True, eq=False)
class ScwolAction:
    """A finite group acting on a finite scwol.

    ``on_objects[g]`` and ``on_morphisms[g]`` give the permutation induced
    by each group element.  Validation checks functoriality of each element,
    the homomorphism law against the Cayley table, and both scwol-action
    axioms, exhaustively.
    """

    group: FinGroup
    space: FinCat
    on_objects: Mapping[str, Mapping[str, str]]
    on_morphisms: Mapping[str, Mapping[str, str]]

    def __post_init__(self):
        g_labels = self.group.labels
        cat = self.space
        if not classify(cat).is_scwol:
            raise NotScwol(f"{cat.name} has a non-identity endomorphism")

        # object level first: axiom (i) only needs the object action, and the
        # interesting rejections (e.g. swapping the endpoints of an arrow)
        # should be reported as axiom violations, not as functor breakage
        for g in g_labels:
            if g not in self.on_objects or g not in self.on_morphisms:
                raise NotAFunctorAction(f"no action data for element {g!r}")
            omap = self.on_objects[g]
            if sorted(omap) != sorted(cat.objects) or sorted(omap.values()) != sorted(cat.objects):
                raise NotAFunctorAction(f"element {g!r} does not permute the objects")
        e = self.group.identity
        for x in cat.objects:
            if self.on_objects[e][x] != x:
                raise NotAHomomorphismAction("identity element moves an object")
        for g in g_labels:
            for h in g_labels:
                gh = self.group.mul(g, h)
                for x in cat.objects:
                    if self.on_objects[g][self.on_objects[h][x]] != self.on_objects[gh][x]:
                        raise NotAHomomorphismAction(
                            f"action of {g!r}{h!r} disagrees with action of {gh!r} on {x!r}"
                        )
        for m in cat.morphisms:
            if cat.is_identity(m.name):
                continue
            for g in g_labels:
                if self.on_objects[g][m.source] == m.target:
                    raise AxiomIViolation(m.name, g)

        # morphism level: each element acts as a strictly invertible functor
        for g in g_labels:
            omap = self.on_objects[g]
            mmap = self.on_morphisms[g]
            names = sorted(m.name for m in cat.morphisms)
            if sorted(mmap) != names or sorted(mmap.values()) != names:
                raise NotAFunctorAction(f"element {g!r} does not permute the morphisms")
            for m in cat.morphisms:
                img = mmap[m.name]
                if cat.source(img) != omap[m.source] or cat.target(img) != omap[m.target]:
                    raise NotAFunctorAction(
                        f"element {g!r} breaks source/target at {m.name!r}"
                    )
            for x in cat.objects:
                if mmap[cat.identity[x]] != cat.identity[omap[x]]:
                    raise NotAFunctorAction(f"element {g!r} breaks identities at {x!r}")
            for (g2, f2), c2 in cat.composition.items():
                if cat.compose(mmap[g2], mmap[f2]) != mmap[c2]:
                    raise NotAFunctorAction(
                        f"element {g!r} breaks composition at ({g2!r}, {f2!r})"
                    )
        for m in cat.morphisms:
            if self.on_morphisms[e][m.name] != m.name:
                raise NotAHomomorphismAction("identity element moves a morphism")
        for g in g_labels:
            for h in g_labels:
                gh = self.group.mul(g, h)
                for m in cat.morphisms:
                    if (
                        self.on_morphisms[g][self.on_morphisms[h][m.name]]
                        != self.on_morphisms[gh][m.name]
                    ):
                        raise NotAHomomorphismAction(
                            f"action of {g!r}{h!r} disagrees with action of {gh!r} on {m.name!r}"
                        )

        for m in cat.morphisms:
            if cat.is_identity(m.name):
                continue
            for g in g_labels:
                if self.on_objects[g][m.source] == m.source and self.on_morphisms[g][m.name] != m.name:
                    raise AxiomIIViolation(m.name, g)

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
        seen: set[str] = set()
        orbits = []
        for x in sorted(self.space.objects):
            if x not in seen:
                orb = self.object_orbit(x)
                seen.update(orb)
                orbits.append(orb)
        return tuple(orbits)

    def morphism_orbits(self) -> tuple[tuple[str, ...], ...]:
        seen: set[str] = set()
        orbits = []
        for m in sorted(n.name for n in self.space.morphisms):
            if m not in seen:
                orb = self.morphism_orbit(m)
                seen.update(orb)
                orbits.append(orb)
        return tuple(orbits)

    def is_free_on_objects(self) -> bool:
        e = self.group.identity
        return all(
            self.act_obj(g, x) != x
            for g in self.group.labels
            if g != e
            for x in self.space.objects
        )


def validate_action(raw: Mapping, group: FinGroup, space: FinCat) -> ScwolAction:
    """Build a ScwolAction from plain data (the JSON payload of kind "action")."""
    try:
        on_objects = {
            str(g): {str(x): str(y) for x, y in table.items()}
            for g, table in raw["object_action"].items()
        }
        on_morphisms = {
            str(g): {str(m): str(n) for m, n in table.items()}
            for g, table in raw["morphism_action"].items()
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise NotAFunctorAction(f"malformed action description ({exc})") from exc
    return ScwolAction(group, space, on_objects, on_morphisms)


def trivial_action(group: FinGroup, space: FinCat) -> ScwolAction:
    return ScwolAction(
        group,
        space,
        {g: {x: x for x in space.objects} for g in group.labels},
        {g: {m.name: m.name for m in space.morphisms} for g in group.labels},
    )


def action_from_object_map(group: FinGroup, space: FinCat,
                           on_objects: Mapping[str, Mapping[str, str]]) -> ScwolAction:
    """Extend an object permutation action along unique morphism transport.

    Usable when for every morphism m and element g there is exactly one
    morphism g.source(m) -> g.target(m); raises otherwise.
    """
    on_morphisms = {}
    for g, omap in on_objects.items():
        mmap = {}
        for m in space.morphisms:
            candidates = space.hom(omap[m.source], omap[m.target])
            if len(candidates) != 1:
                raise NotAFunctorAction(
                    f"morphism image of {m.name!r} under {g!r} is not unique"
                )
            mmap[m.name] = candidates[0]
        on_morphisms[g] = mmap
    return ScwolAction(group, space, on_objects, on_morphisms)


# -- quotients ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuotientResult:
    category: FinCat
    projection: CatFunctor
    object_orbit_of: Mapping[str, str]
    morphism_orbit_of: Mapping[str, str]


def quotient(action: ScwolAction) -> QuotientResult:
    """Quotient scwol: objects and morphisms are G-orbits, with composition
    and identities induced from the space.

    Well-definedness of the induced composition and the source-side orbit
    bijection are consequences of the action axioms; both are re-verified
    here and raise InvalidQuotient on failure.
    """
    cat = action.space
    obj_orbit: dict[str, str] = {}
    for orb in action.object_orbits():
        for x in orb:
            obj_orbit[x] = orb[0]
    mor_orbit: dict[str, str] = {}
    for orb in action.morphism_orbits():
        for m in orb:
            mor_orbit[m] = orb[0]

    objs = tuple(sorted(set(obj_orbit.values())))
    mor_reps = sorted(set(mor_orbit.values()))
    mors = []
    for m in mor_reps:
        mors.append(Morphism(m, obj_orbit[cat.source(m)], obj_orbit[cat.target(m)]))

    ident = {}
    for x in objs:
        ident[x] = mor_orbit[cat.identity[x]]

    # induced composition: compose any composable pair of lifts; verify all
    # choices give the same orbit
    comp: dict[tuple[str, str], str] = {}
    for mb in mors:
        for ma in mors:
            if ma.target != mb.source:
                continue
            results = set()
            for a in action.morphism_orbit(ma.name):
                for b in action.morphism_orbit(mb.name):
                    if cat.target(a) == cat.source(b):
                        results.add(mor_orbit[cat.compose(b, a)])
            if len(results) != 1:
                raise InvalidQuotient(
                    f"composite of orbits ({mb.name!r}, {ma.name!r}) is not well-defined: {sorted(results)}"
                )
            comp[(mb.name, ma.name)] = results.pop()

    q = FinCat(objs, tuple(mors), ident, comp, name=f"{cat.name}/{action.group.name}")
    if not classify(q).is_scwol:
        raise InvalidQuotient(f"quotient of {cat.name} is not a scwol")

    projection = CatFunctor(cat, q, dict(obj_orbit), dict(mor_orbit))

    # source-side orbit bijection: morphisms out of x biject with morphisms
    # out of p(x), for every object x
    for x in cat.objects:
        outgoing = cat.morphisms_from(x)
        images = [mor_orbit[m] for m in outgoing]
        if len(set(images)) != len(images):
            raise InvalidQuotient(f"projection is not injective on morphisms out of {x!r}")
        if set(images) != set(q.morphisms_from(obj_orbit[x])):
            raise InvalidQuotient(f"projection is not surjective on morphisms out of {x!r}")

    return QuotientResult(q, projection, obj_orbit, mor_orbit)


def stabilizer(action: ScwolAction, obj: str) -> FinGroup:
    """Isotropy subgroup {g : g . obj = obj} with the induced Cayley table."""
    action.space.require_object(obj)
    members = [g for g in action.group.labels if action.act_obj(g, obj) == obj]
    return action.group.subgroup(members, name=f"Stab({obj})")


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
        if not classify(base).is_scwol:
            raise NotScwol(f"{base.name} has a non-identity endomorphism")
        for x in base.objects:
            if x not in self.local:
                raise ValidationError(f"no local group at {x!r}")
        for m in base.morphisms:
            hom = self.homs.get(m.name)
            if hom is None:
                raise ValidationError(f"no structure homomorphism along {m.name!r}")
            if hom.source is not self.local[m.source] or hom.target is not self.local[m.target]:
                raise ValidationError(f"homomorphism along {m.name!r} has wrong endpoints")
            if not hom.is_injective():
                raise ValidationError(f"homomorphism along {m.name!r} is not injective")
            if base.is_identity(m.name):
                if any(hom(x) != x for x in hom.source.labels):
                    raise ValidationError(f"identity morphism {m.name!r} carries a non-identity map")

        for (b, a), g in self.twists.items():
            if (b, a) not in base.composition:
                raise ValidationError(f"twist given for non-composable pair ({b!r}, {a!r})")
            if g not in self.local[base.target(b)]:
                raise ValidationError(
                    f"twist at ({b!r}, {a!r}) is not an element of the local group at {base.target(b)!r}"
                )
        for (b, a) in base.composition:
            if (b, a) not in self.twists:
                raise ValidationError(f"no twist at composable pair ({b!r}, {a!r})")
            if base.is_identity(a) or base.is_identity(b):
                g = self.twists[(b, a)]
                if g != self.local[base.target(b)].identity:
                    raise ValidationError(f"unit twist at ({b!r}, {a!r}) must be trivial")

        # conjugation identity (the 2-cell condition)
        for (b, a), g in self.twists.items():
            ba = self.base.compose(b, a)
            tgt = self.local[base.target(b)]
            for x in self.local[base.source(a)].labels:
                composed = self.homs[b](self.homs[a](x))
                if tgt.conjugate(composed, g) != self.homs[ba](x):
                    raise ValidationError(
                        f"conjugation identity fails at ({b!r}, {a!r}) on element {x!r}"
                    )

        # cocycle identity on composable triples
        for a in base.morphism_names():
            for b in base.morphisms_from(base.target(a)):
                ba = base.compose(b, a)
                for c in base.morphisms_from(base.target(b)):
                    cb = base.compose(c, b)
                    tgt = self.local[base.target(c)]
                    lhs = tgt.mul(self.twists[(c, ba)], self.homs[c](self.twists[(b, a)]))
                    rhs = tgt.mul(self.twists[(cb, a)], self.twists[(c, b)])
                    if lhs != rhs:
                        raise ValidationError(
                            f"cocycle fails on triple ({c!r}, {b!r}, {a!r})"
                        )

    def twist(self, b: str, a: str) -> str:
        return self.twists[(b, a)]


def constant_complex(base: FinCat, group: FinGroup) -> ComplexOfGroups:
    ident = GroupHom.identity_hom(group)
    return ComplexOfGroups(
        base,
        {x: group for x in base.objects},
        {m.name: ident for m in base.morphisms},
        {(b, a): group.identity for (b, a) in base.composition},
    )


def one_arrow_complex(g0: FinGroup, g1: FinGroup, hom: GroupHom) -> ComplexOfGroups:
    """A complex G0 -> G1 over the arrow scwol {0 -> 1}."""
    from .zoo import arrow_category

    base = arrow_category()
    if hom.source is not g0 or hom.target is not g1:
        raise ValidationError("homomorphism endpoints do not match the groups")
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
    q = quotient(action)
    base = q.category
    cat = action.space
    group = action.group

    reps: dict[str, str] = {}
    for orbit_name in base.objects:
        members = action.object_orbit(orbit_name)
        chosen = (object_reps or {}).get(orbit_name, members[0])
        if q.object_orbit_of.get(chosen) != orbit_name:
            raise ValidationError(
                f"override representative {chosen!r} does not project to {orbit_name!r}"
            )
        reps[orbit_name] = chosen

    local = {s: stabilizer(action, reps[s]) for s in base.objects}

    lifts: dict[str, str] = {}
    h_elts: dict[str, str] = {}
    for m in base.morphisms:
        s_rep = reps[m.source]
        t_rep = reps[m.target]
        candidates = [
            a for a in cat.morphisms_from(s_rep) if q.morphism_orbit_of[a] == m.name
        ]
        if len(candidates) != 1:
            raise InvalidQuotient(
                f"morphism {m.name!r} has {len(candidates)} lifts at {s_rep!r}"
            )
        lift = candidates[0]
        lifts[m.name] = lift
        wanted = (h_elements or {}).get(m.name)
        if base.is_identity(m.name) and wanted is None:
            wanted = group.identity
        if wanted is not None:
            if action.act_obj(wanted, cat.target(lift)) != t_rep:
                raise ValidationError(
                    f"override h element {wanted!r} does not carry the lift target onto {t_rep!r}"
                )
            h_elts[m.name] = wanted
        else:
            h_elts[m.name] = next(
                g for g in group.labels if action.act_obj(g, cat.target(lift)) == t_rep
            )

    homs = {}
    for m in base.morphisms:
        # conjugation happens in the ambient group; an element fixing the
        # lift's source fixes the lift and hence its target, so conjugating
        # by h lands in the stabilizer of the target representative
        h = h_elts[m.name]
        homs[m.name] = GroupHom(
            local[m.source],
            local[m.target],
            {a: group.conjugate(a, h) for a in local[m.source].labels},
        )
    twists = {}
    for (b, a) in base.composition:
        ba = base.compose(b, a)
        elt = group.mul(h_elts[ba], group.mul(group.inv(h_elts[a]), group.inv(h_elts[b])))
        twists[(b, a)] = elt

    cplx = ComplexOfGroups(base, local, homs, twists)
    return ComplexFromAction(
        cplx,
        MorphismToGroup(group, reps, lifts, h_elts),
        q,
    )


# -- homotopy colimit of a complex of groups -------------------------------------


def hocolim_groups(cplx: ComplexOfGroups) -> FinCat:
    """Homotopy colimit of a complex of groups, built directly.

    Objects are the base objects; a morphism s -> t is a pair (a, g) with
    a: s -> t in the base and g in local[t], composed by
    (b, g2) o (a, g1) = (b o a, g2 . F(b)(g1) . twist(b, a)^{-1}).
    """
    base = cplx.base

    def nm(a: str, g: str) -> str:
        return f"({a},{g})"

    mors = []
    ident = {}
    for m in base.morphisms:
        for g in cplx.local[m.target].labels:
            mors.append(Morphism(nm(m.name, g), m.source, m.target))
    for x in base.objects:
        ident[x] = nm(base.identity[x], cplx.local[x].identity)

    comp = {}
    for ma in base.morphism_names():
        for mb in base.morphisms_from(base.target(ma)):
            ba = base.compose(mb, ma)
            tgt = cplx.local[base.target(mb)]
            tw_inv = tgt.inv(cplx.twist(mb, ma))
            for g1 in cplx.local[base.target(ma)].labels:
                fb_g1 = cplx.homs[mb](g1)
                for g2 in tgt.labels:
                    comp[(nm(mb, g2), nm(ma, g1))] = nm(
                        ba, tgt.mul(g2, tgt.mul(fb_g1, tw_inv))
                    )

    return FinCat(
        tuple(base.objects), tuple(mors), ident, comp, name=f"hocolim({base.name})"
    )


def complex_to_pseudo_diagram(cplx: ComplexOfGroups):
    """Reinterpret a complex of groups as a pseudo diagram of one-object
    categories, for the generic Grothendieck construction."""
    from .hocolim import PseudoDiagram
    from .zoo import one_object_category

    base = cplx.base
    vertex = {x: one_object_category(cplx.local[x], obj="*") for x in base.objects}
    edge = {}
    for m in base.morphisms:
        hom = cplx.homs[m.name]
        edge[m.name] = CatFunctor(
            vertex[m.source],
            vertex[m.target],
            {"*": "*"},
            {g: hom(g) for g in hom.source.labels},
        )
    comp = {}
    for (b, a), tw in cplx.twists.items():
        comp[(b, a)] = NatIso(
            edge[a].then(edge[b]),
            edge[base.compose(b, a)],
            {"*": tw},
        )
    unit = {
        x: NatIso(
            CatFunctor.identity_functor(vertex[x]),
            edge[base.identity[x]],
            {"*": cplx.local[x].identity},
        )
        for x in base.objects
    }
    return PseudoDiagram(base, vertex, edge, comp, unit)


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

    The induced action of g on the skeleton is r o (g . -) o i.  The report
    re-verifies, instance by instance: equivariance of r, the commuting
    quotient square with its induced equivalence, stabilizer preservation,
    literal agreement of the two associated complexes of groups under
    coordinated choices, equality of chi_L of the two homotopy colimits,
    and preservation of freeness on objects.
    """
    cat = action.space
    group = action.group
    sk = skeleton(cat)
    gamma = sk.category
    r, incl = sk.retraction, sk.inclusion

    on_objects = {}
    on_morphisms = {}
    for g in group.labels:
        on_objects[g] = {x: r.obj_map[action.act_obj(g, x)] for x in gamma.objects}
        on_morphisms[g] = {
            m.name: r.mor_map[action.act_mor(g, m.name)] for m in gamma.morphisms
        }
    reduced = ScwolAction(group, gamma, on_objects, on_morphisms)

    # (1) r is G-equivariant
    equivariant = all(
        r.obj_map[action.act_obj(g, x)] == reduced.act_obj(g, r.obj_map[x])
        for g in group.labels
        for x in cat.objects
    ) and all(
        r.mor_map[action.act_mor(g, m.name)] == reduced.act_mor(g, r.mor_map[m.name])
        for g in group.labels
        for m in cat.morphisms
    )

    # (2) induced functor on quotients commutes with projections and is an
    # equivalence
    qx = quotient(action)
    qg = quotient(reduced)
    rbar_obj = {}
    rbar_mor = {}
    square = True
    for x in cat.objects:
        img = qg.object_orbit_of[r.obj_map[x]]
        prev = rbar_obj.setdefault(qx.object_orbit_of[x], img)
        if prev != img:
            square = False
    for m in cat.morphisms:
        img = qg.morphism_orbit_of[r.mor_map[m.name]]
        prev = rbar_mor.setdefault(qx.morphism_orbit_of[m.name], img)
        if prev != img:
            square = False
    if square:
        rbar = CatFunctor(qx.category, qg.category, rbar_obj, rbar_mor)
        surjective = set(rbar_obj.values()) == set(qg.category.objects)
        fully_faithful = all(
            len(qx.category.hom(a, b))
            == len(qg.category.hom(rbar_obj[a], rbar_obj[b]))
            and len(
                {rbar_mor[m] for m in qx.category.hom(a, b)}
            )
            == len(qx.category.hom(a, b))
            for a in qx.category.objects
            for b in qx.category.objects
        )
        is_equivalence = surjective and fully_faithful
    else:
        rbar = None
        is_equivalence = False

    # (3) the inclusion preserves stabilizers
    stab_ok = all(
        set(stabilizer(action, x).labels) == set(stabilizer(reduced, x).labels)
        for x in gamma.objects
    )

    # (4) the associated complexes agree under coordinated choices
    complexes_agree = False
    fx = fg = None
    if rbar is not None:
        fx_choices, fg_choices = _coordinated_choices(action, reduced, r, qx, qg, rbar)
        fx = complex_of_groups(action, *fx_choices)
        fg = complex_of_groups(reduced, *fg_choices)
        complexes_agree = _complexes_agree_along(fx.complex, fg.complex, rbar)

    # (5) the homotopy colimits have equal chi_L
    if fx is not None and fg is not None:
        hocolims_equal = chi_L(hocolim_groups(fx.complex)) == chi_L(
            hocolim_groups(fg.complex)
        )
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
    return SkeletalReduction(reduced, r, incl, report)


def _coordinated_choices(action, reduced, r, qx, qg, rbar):
    """Choices making the complexes over X/G and over the skeleton agree.

    Follows the retraction: pick a skeleton of X/G with preimages q; the
    selected preimage of an arbitrary orbit is the target of the unique lift
    of the unique isomorphism from its skeletal representative, and h
    elements are shared along iso-normal forms and transported through the
    retraction.
    """
    cat = action.space
    group = action.group
    base = qx.category
    qsk = skeleton(base)
    skel_objs = set(qsk.category.objects)
    iso = iso_classes(base)

    # selected preimage per orbit object of X/G
    sel: dict[str, str] = {}
    norm_obj: dict[str, str] = {}
    for cls in iso.classes:
        q_rep = cls[0]
        q_pre = min(x for x in cat.objects if qx.object_orbit_of[x] == q_rep)
        sel[q_rep] = q_pre
        norm_obj[q_rep] = q_rep
        for other in cls[1:]:
            norm_obj[other] = q_rep
            iso_mor = next(
                m for m in base.hom(q_rep, other) if base.is_invertible(m)
            )
            lift = next(
                a
                for a in cat.morphisms_from(q_pre)
                if qx.morphism_orbit_of[a] == iso_mor
            )
            sel[other] = cat.target(lift)

    # h elements: chosen on skeletal morphisms, shared along normal forms
    h_on_skel: dict[str, str] = {}
    h_x: dict[str, str] = {}
    norm_mor: dict[str, str] = {}
    for m in base.morphisms:
        nf = _normal_form_morphism(base, iso, norm_obj, m.name)
        norm_mor[m.name] = nf
    for m in base.morphisms:
        nf = norm_mor[m.name]
        if nf not in h_on_skel:
            src_rep = base.source(nf)
            tgt_rep = base.target(nf)
            lift = next(
                a
                for a in cat.morphisms_from(sel[src_rep])
                if qx.morphism_orbit_of[a] == nf
            )
            if base.is_identity(nf):
                h_on_skel[nf] = group.identity
            else:
                h_on_skel[nf] = next(
                    g
                    for g in group.labels
                    if action.act_obj(g, cat.target(lift)) == sel[tgt_rep]
                )
        h_x[m.name] = h_on_skel[norm_mor[m.name]]

    # transport through rbar for the reduced action: every object/morphism
    # of Gamma/G is the rbar-image of a unique skeletal object/morphism
    sel_g: dict[str, str] = {}
    h_g: dict[str, str] = {}
    for q_rep in skel_objs:
        sel_g[rbar.obj_map[q_rep]] = r.obj_map[sel[q_rep]]
    for nf, h in h_on_skel.items():
        if base.source(nf) in skel_objs and base.target(nf) in skel_objs:
            h_g[rbar.mor_map[nf]] = h

    return (sel, h_x), (sel_g, h_g)


def _normal_form_morphism(base, iso, norm_obj, m: str) -> str:
    """The unique skeletal morphism completing the iso square of m."""
    src, tgt = base.source(m), base.target(m)
    src_rep, tgt_rep = norm_obj[src], norm_obj[tgt]
    if src == src_rep and tgt == tgt_rep:
        return m
    to_src = (
        base.identity[src]
        if src == src_rep
        else next(u for u in base.hom(src_rep, src) if base.is_invertible(u))
    )
    from_tgt = (
        base.identity[tgt]
        if tgt == tgt_rep
        else base.inverse(
            next(u for u in base.hom(tgt_rep, tgt) if base.is_invertible(u))
        )
    )
    return base.compose(from_tgt, base.compose(m, to_src))


def _complexes_agree_along(fx: ComplexOfGroups, fg: ComplexOfGroups, rbar: CatFunctor) -> bool:
    for x in fx.base.objects:
        if set(fx.local[x].labels) != set(fg.local[rbar.obj_map[x]].labels):
            return False
    for m in fx.base.morphisms:
        img = rbar.mor_map[m.name]
        if dict(fx.homs[m.name].mapping) != dict(fg.homs[img].mapping):
            return False
    for (b, a), tw in fx.twists.items():
        if fg.twists[(rbar.mor_map[b], rbar.mor_map[a])] != tw:
            return False
    return True


@dataclass(frozen=True, eq=False)
class EquivariantSkeleton:
    action: ScwolAction
    inclusion: CatFunctor
    retraction: CatFunctor
    eta: NatIso
    inclusion_equivariant: bool
    eta_equivariant: bool


def equivariant_skeleton(action: ScwolAction) -> EquivariantSkeleton:
    """A skeleton chosen orbit-by-orbit so its inclusion is G-equivariant.

    Representatives are chosen on one iso class per G-orbit of classes and
    extended along the action; the natural isomorphism then automatically
    satisfies eta_{g.x} = g . eta_x (isomorphisms in a scwol are unique).
    """
    cat = action.space
    group = action.group
    iso = iso_classes(cat)
    rep_of_class = {cls[0]: cls[0] for cls in iso.classes}
    class_of_obj = {}
    for cls in iso.classes:
        for x in cls:
            class_of_obj[x] = cls[0]

    # G acts on iso classes; choose one class per orbit, a representative
    # object there, then push forward along the action
    section: dict[str, str] = {}
    handled: set[str] = set()
    for cls in iso.classes:
        cls_id = cls[0]
        if cls_id in handled:
            continue
        orbit_classes = sorted({class_of_obj[action.act_obj(g, cls_id)] for g in group.labels})
        base_class = orbit_classes[0]
        base_obj = base_class  # least object of the least class
        for g in group.labels:
            target_class = class_of_obj[action.act_obj(g, base_obj)]
            candidate = action.act_obj(g, base_obj)
            if target_class in section and section[target_class] != candidate:
                raise InvalidQuotient(
                    "equivariant section is not well-defined; action axioms violated"
                )
            section[target_class] = candidate
        handled.update(orbit_classes)

    chosen = sorted(section.values())
    gamma = full_subcategory(cat, chosen, name=f"sk_G({cat.name})")
    incl = CatFunctor(
        gamma, cat, {x: x for x in gamma.objects}, {m.name: m.name for m in gamma.morphisms}
    )

    eta_comp = {}
    for x in cat.objects:
        rep = section[class_of_obj[x]]
        if rep == x:
            eta_comp[x] = cat.identity[x]
        else:
            eta_comp[x] = next(m for m in cat.hom(rep, x) if cat.is_invertible(m))
    r_obj = {x: section[class_of_obj[x]] for x in cat.objects}
    r_mor = {}
    for m in cat.morphisms:
        conj = cat.compose(m.name, eta_comp[m.source])
        r_mor[m.name] = cat.compose(cat.inverse(eta_comp[m.target]), conj)
    retraction = CatFunctor(cat, gamma, r_obj, r_mor)
    eta = NatIso(
        retraction.then(incl), CatFunctor.identity_functor(cat), eta_comp
    )

    restricted = ScwolAction(
        group,
        gamma,
        {g: {x: action.act_obj(g, x) for x in gamma.objects} for g in group.labels},
        {
            g: {m.name: action.act_mor(g, m.name) for m in gamma.morphisms}
            for g in group.labels
        },
    )

    incl_equivariant = all(
        action.act_obj(g, x) in set(gamma.objects)
        for g in group.labels
        for x in gamma.objects
    )
    eta_equivariant = all(
        action.act_mor(g, eta_comp[x]) == eta_comp[action.act_obj(g, x)]
        for g in group.labels
        for x in cat.objects
    )
    return EquivariantSkeleton(
        restricted, incl, retraction, eta, incl_equivariant, eta_equivariant
    )


# -- transport groupoids -----------------------------------------------------------


def transport_groupoid(group: FinGroup, elements: Sequence[str],
                       act: Mapping[str, Mapping[str, str]]) -> FinCat:
    """Transport groupoid of a finite left G-set.

    Objects are the set elements; the morphisms s1 -> s2 are the group
    elements g with g . s1 = s2, composed by group multiplication.  The
    result is checked (by equal chi_L) to agree with the homotopy colimit
    of the complex of groups of the action on the discrete scwol.
    """
    elements = tuple(elements)
    e = group.identity
    for g in group.labels:
        if g not in act:
            raise NotAnAction(f"no action row for element {g!r}")
        if sorted(act[g]) != sorted(elements) or sorted(act[g].values()) != sorted(elements):
            raise NotAnAction(f"element {g!r} does not permute the set")
    if any(act[e][s] != s for s in elements):
        raise NotAnAction("identity element moves a point")
    for g in group.labels:
        for h in group.labels:
            gh = group.mul(g, h)
            if any(act[g][act[h][s]] != act[gh][s] for s in elements):
                raise NotAnAction(f"action of {g!r}{h!r} disagrees with {gh!r}")

    def nm(g: str, s: str) -> str:
        return f"({g},{s})"

    mors = [Morphism(nm(g, s), s, act[g][s]) for s in elements for g in group.labels]
    ident = {s: nm(e, s) for s in elements}
    comp = {}
    for s in elements:
        for g in group.labels:
            mid = act[g][s]
            for h in group.labels:
                comp[(nm(h, mid), nm(g, s))] = nm(group.mul(h, g), s)
    groupoid = FinCat(elements, tuple(mors), ident, comp, name=f"transport({group.name})")

    from .zoo import discrete_category

    disc = discrete_category(elements, name="S")
    discrete_action = ScwolAction(
        group,
        disc,
        {g: dict(act[g]) for g in group.labels},
        {
            g: {disc.identity[s]: disc.identity[act[g][s]] for s in elements}
            for g in group.labels
        },
    )
    via_complex = hocolim_groups(complex_of_groups(discrete_action).complex)
    direct, via_hocolim = chi_L(groupoid), chi_L(via_complex)
    if direct != via_hocolim:
        raise InvariantViolation(
            "transport groupoid disagrees with the homotopy colimit route",
            witness={"transport": direct, "hocolim": via_hocolim},
        )
    return groupoid


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
    spectrum with values 1/|stabilizer| and via chi_L of the homotopy
    colimit; and chi(hocolim F) = chi(X/G) via the all-ones values.
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
    direct_route = chi_L(hocolim_groups(from_action.complex))
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
    L2-Euler characteristic r of its homotopy colimit must satisfy
    chi(X) = r * |G| exactly (so r * |G| must be an integer of the right
    sign)."""
    r = chi_L(hocolim_groups(cplx))
    results = []
    for chi_space, order in candidates:
        if order <= 0:
            raise ValidationError("group order must be positive")
        verdict = "PASS" if Fraction(chi_space) == r * order else "FAIL"
        results.append(DevelopabilityCandidate(chi_space, order, verdict))
    return DevelopabilityReport(r, tuple(results))


# -- Haefliger's lower-link formula -----------------------------------------------------


def haefliger_chi(cat: FinCat, vals: Mapping[str, Fraction]) -> Fraction:
    """sum_i (1 - chi(B Lk^i)) . vals(i) over a finite scwol, skeletonized.

    ``vals[i]`` is the user-supplied Euler characteristic of the classifying
    space of the local group at i (1 for trivial groups).  The proof's
    identity, 1 - chi(Lk^i) = alternating count of paths starting at i, is
    checked along the way.
    """
    if not classify(cat).is_scwol:
        raise NotScwol(f"{cat.name} has a non-identity endomorphism")
    gamma = skeleton(cat).category
    pc = path_counts(gamma)
    total = Fraction(0)
    for i in gamma.objects:
        link = lower_link(gamma, i)
        one_minus = 1 - chi_scwol(link)
        if one_minus != pc.start_sum(i):
            raise InvariantViolation(
                f"lower-link identity fails at {i!r}",
                witness={"object": i, "one_minus_chi_link": one_minus,
                         "start_sum": pc.start_sum(i)},
            )
        if i not in vals:
            from .hocolim import MissingValue

            raise MissingValue(f"no local value supplied at {i!r}")
        total += one_minus * Fraction(vals[i])
    return total
