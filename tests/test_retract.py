"""The one retraction builder behind ``skeleton``, ``equivariant_skeleton``
and the coordinated choices of ``skeletal_reduction``.

Each of the three once built its own choice of isomorphisms and its own
conjugation into the skeleton.  Those bodies are kept here, unchanged, as
references: the library must give the same categories, functor maps,
components and choices on every drawn input, including the fattenings made
by ``randgen.inflate_action``, where the retraction does real work.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulcat import groups, randgen, zoo
from eulcat.fincat import (
    CatFunctor,
    SkeletonData,
    full_subcategory,
    iso_classes,
    skeleton,
)
from eulcat.groupact import (
    EquivariantSkeleton,
    ScwolAction,
    _coordinated_choices,
    _fixers,
    equivariant_skeleton,
    quotient,
    skeletal_reduction,
    stabilizer,
)
from eulcat.groups import cyclic_group

from helpers import InvalidQuotient, count_calls, equal_presentation, nat_iso_checks
from strategies import actions, groupoids, posets, scwols


# -- reference routes -----------------------------------------------------------


def reference_skeleton(cat):
    """The skeleton from ``iso_classes``, with its own retraction data."""
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

    nat_iso_checks(retraction.then(inclusion), CatFunctor.identity_functor(cat), eta_comp)
    return SkeletonData(gamma, inclusion, retraction, eta_comp)


def reference_equivariant_skeleton(action):
    """The G-equivariant skeleton with its own retraction data."""
    cat = action.space
    group = action.group
    iso = iso_classes(cat)
    class_of_obj = {}
    for cls in iso.classes:
        for x in cls:
            class_of_obj[x] = cls[0]

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
    nat_iso_checks(retraction.then(incl), CatFunctor.identity_functor(cat), eta_comp)

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
        restricted, incl, retraction, eta_comp, incl_equivariant, eta_equivariant
    )


def reference_coordinated_choices(action, reduced, r, qx, qg, rbar):
    """((sel, h_x), (sel_g, h_g)) from a second iso-class pass over X/G and
    the iso-square normal form of each morphism."""
    cat = action.space
    group = action.group
    base = qx.category
    qsk = reference_skeleton(base)
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
        nf = reference_normal_form_morphism(base, iso, norm_obj, m.name)
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

    # transport through rbar for the reduced action
    sel_g: dict[str, str] = {}
    h_g: dict[str, str] = {}
    for q_rep in skel_objs:
        sel_g[rbar.obj_map[q_rep]] = r.obj_map[sel[q_rep]]
    for nf, h in h_on_skel.items():
        if base.source(nf) in skel_objs and base.target(nf) in skel_objs:
            h_g[rbar.mor_map[nf]] = h

    return (sel, h_x), (sel_g, h_g)


def reference_normal_form_morphism(base, iso, norm_obj, m: str) -> str:
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


# -- inputs -----------------------------------------------------------------------


@st.composite
def fattened(draw, actions):
    """An action with 1-3 isomorphic copies of the objects of each orbit."""
    action = draw(actions)
    copies = {}
    for orbit in action.object_orbits():
        copies.update(dict.fromkeys(orbit, draw(st.integers(1, 3))))
    return randgen.inflate_action(action, copies)


all_actions = st.one_of(actions, fattened(actions))
categories = st.one_of(
    scwols, posets, groupoids.map(lambda g: g.category), all_actions.map(lambda a: a.space)
)


def maps(functor):
    return dict(functor.obj_map), dict(functor.mor_map)


def assert_same_retraction(new, old):
    """Equal categories, inclusion and retraction maps and eta components."""
    assert equal_presentation(new.category, old.category)
    assert new.category.name == old.category.name
    assert maps(new.inclusion) == maps(old.inclusion)
    assert maps(new.retraction) == maps(old.retraction)
    assert dict(new.eta) == dict(old.eta)


def named_choices(action, q, reps, h):
    """Index choices (``groupact._complex_from_choices``) as the reference's
    names: each orbit's representative and each orbit arrow's h element."""
    return ({s: action.space.objects[x] for s, x in zip(q.category.objects, reps)},
            {m: action.group.labels[g] for m, g in zip(q.category.morphism_names(), h)})


def reduction_setup(action):
    """The arguments skeletal_reduction hands to the coordinated choices:
    the reduced action, the retraction r, both quotients and rbar."""
    red = skeletal_reduction(action)
    r = red.retraction
    qx, qg = quotient(action), quotient(red.action)
    rbar = CatFunctor(
        qx.category,
        qg.category,
        {qx.object_orbit_of[x]: qg.object_orbit_of[r.obj_map[x]] for x in action.space.objects},
        {
            qx.morphism_orbit_of[m]: qg.morphism_orbit_of[r.mor_map[m]]
            for m in action.space.morphism_names()
        },
    )
    return red.action, r, qx, qg, rbar


FAT_CIRCLE = randgen.inflate_action(randgen.circle_action(), {"x": 2, "x2": 2, "y": 1, "z": 1})


# -- the builder against the references -------------------------------------------


class TestSharedBuilderMatchesReferences:
    @settings(max_examples=40, deadline=None)
    @given(categories)
    @example(FAT_CIRCLE.space)
    def test_skeleton(self, cat):
        assert_same_retraction(skeleton(cat), reference_skeleton(cat))

    @settings(max_examples=25, deadline=None)
    @given(all_actions)
    @example(FAT_CIRCLE)
    def test_equivariant_skeleton(self, action):
        new, old = equivariant_skeleton(action), reference_equivariant_skeleton(action)
        assert_same_retraction(
            SkeletonData(new.action.space, new.inclusion, new.retraction, new.eta),
            SkeletonData(old.action.space, old.inclusion, old.retraction, old.eta),
        )
        assert (dict(new.action.on_objects), dict(new.action.on_morphisms)) == (
            dict(old.action.on_objects), dict(old.action.on_morphisms)
        )
        assert (new.inclusion_equivariant, new.eta_equivariant) == (
            old.inclusion_equivariant, old.eta_equivariant
        )

    @settings(max_examples=25, deadline=None)
    @given(all_actions)
    @example(FAT_CIRCLE)
    def test_coordinated_choices(self, action):
        reduced, r, qx, qg, rbar = reduction_setup(action)
        fx, fg = _coordinated_choices(action, r, qx, rbar)
        assert (named_choices(action, qx, *fx), named_choices(reduced, qg, *fg)) == \
            reference_coordinated_choices(action, reduced, r, qx, qg, rbar)


# -- work the builder no longer does ------------------------------------------------


class TestNoIsoClassesPass:
    def test_skeletal_reduction_makes_no_iso_classes_call(self, monkeypatch):
        counts = {"iso_classes": 0}
        count_calls(monkeypatch, counts)
        assert skeletal_reduction(FAT_CIRCLE).report.all_hold()
        assert counts == {"iso_classes": 0}

    def test_skeleton_builds_no_group(self, monkeypatch):
        cat = zoo.inflate(zoo.one_object_category(cyclic_group(3)), {"*": 3})
        built = []
        real = groups.FinGroup.__post_init__
        monkeypatch.setattr(
            groups.FinGroup, "__post_init__", lambda self: built.append(self.name) or real(self)
        )
        assert len(skeleton(cat).category.objects) == 1
        assert built == []


class TestStabilizersAsMemberSets:
    """``skeletal_reduction`` compares stabilizers as member lists; the
    subgroups it once built for the comparison are the reference."""

    @settings(max_examples=25, deadline=None)
    @given(all_actions)
    @example(FAT_CIRCLE)
    def test_report_matches_subgroup_route(self, action):
        red = skeletal_reduction(action)
        old = all(
            set(stabilizer(action, x).labels) == set(stabilizer(red.action, x).labels)
            for x in red.action.space.objects
        )
        assert red.report.stabilizers_preserved == old
        for x in action.space.objects:
            assert _fixers(action, x) == list(stabilizer(action, x).labels)

    def test_only_the_complexes_build_groups(self, monkeypatch):
        """The only groups built are the local groups of the two complexes
        of groups, one per object of each quotient.  A group is built either
        validated or, as a subgroup of a validated group, by ``subgroup``
        without validation; both are counted."""
        built = []
        real = groups.FinGroup.__post_init__
        real_subgroup = groups.FinGroup.subgroup
        red = skeletal_reduction(FAT_CIRCLE)
        expected = len(quotient(FAT_CIRCLE).category.objects) + len(
            quotient(red.action).category.objects
        )

        def subgroup(self, *args, **kwargs):
            sub = real_subgroup(self, *args, **kwargs)
            built.append(sub.name)
            return sub

        monkeypatch.setattr(
            groups.FinGroup, "__post_init__", lambda self: built.append(self.name) or real(self)
        )
        monkeypatch.setattr(groups.FinGroup, "subgroup", subgroup)
        assert skeletal_reduction(FAT_CIRCLE).report.all_hold()
        assert len(built) == expected
