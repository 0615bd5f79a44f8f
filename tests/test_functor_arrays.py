"""A functor keeps its two index arrays; its maps are views.

``CatFunctor`` keeps ``_arrays`` (object images, morphism images) as its
store.  The names constructor checks and keeps the maps it is given; every
maker in the library writes arrays (``CatFunctor.from_arrays``, checked, or
``errors._trusted``), and their ``obj_map``/``mor_map`` are made on first
read.  These tests compare each maker's arrays with the arrays read off the
maps the name-level route built (``helpers.reference_functor_arrays``),
compare the random groupoid functor with the name route it replaced
(``helpers.reference_random_groupoid_functor``), pin the rejections of both
constructors, and check that the ``audit`` set-up and its formula tasks
make no map view.
"""

import json
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import fincat, groupact, hocolim, manifest, randgen, zoo
from eulcat.errors import EulcatError, _trusted
from eulcat.fincat import CatFunctor, NotAFunctor
from eulcat.groups import _image_of, cyclic_group
from eulcat.hocolim import _pair_obj, _triple_mor, constant_diagram, set_diagram

from helpers import (
    identity_maps,
    load_workloads,
    reference_composite_maps,
    reference_functor_arrays,
    reference_random_groupoid_functor,
    reference_retract,
)
from strategies import SEEDS, actions, groupoids, posets, scwols, strict_diagrams

categories = st.one_of(scwols, posets, groupoids.map(lambda g: g.category))


def by_name(source, obj_map, mor_map, target) -> tuple[list[int], list[int]]:
    """The arrays of the maps ``obj_map`` and ``mor_map`` from ``source``
    into ``target``, read by name."""
    named = SimpleNamespace(source=source, obj_map=obj_map, mor_map=mor_map)
    return reference_functor_arrays(named, target._ends)


def assert_same_functor(got: CatFunctor, want: CatFunctor) -> None:
    assert got.source is want.source and got.target is want.target
    assert dict(got.obj_map) == dict(want.obj_map)
    assert dict(got.mor_map) == dict(want.mor_map)


def failure(fn, *args):
    try:
        fn(*args)
    except (EulcatError, KeyError, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


class TestMakersKeepTheirArrays:
    """Each maker's ``_arrays`` are those of the maps the name-level route
    made, and its maps are views until read."""

    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_then(self, d):
        for (v, u), vu in d.index.composition.items():
            first, second = d.edge[u], d.edge[v]
            fun = first.then(second)
            assert "obj_map" not in vars(fun) and "mor_map" not in vars(fun)
            obj_map, mor_map = reference_composite_maps(first, second)
            assert fun._arrays == by_name(first.source, obj_map, mor_map, second.target)

    @settings(max_examples=40, deadline=None)
    @given(categories)
    def test_identity_functor_and_constant_diagram(self, cat):
        want = by_name(cat, *identity_maps(cat), cat)
        assert CatFunctor.identity_functor(cat)._arrays == want
        d = constant_diagram(zoo.pushout_scwol(), cat)
        assert all(fun._arrays == want for fun in d.edge.values())

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(categories, actions.map(lambda a: a.space)))
    def test_skeleton(self, cat):
        sk = fincat.skeleton(cat)
        rep_of = {x: cls[0] for cls in fincat._iso_partition(cat) for x in cls}
        _, inclusion, retraction, _ = reference_retract(cat, rep_of, f"sk({cat.name})")
        assert sk.inclusion._arrays == by_name(sk.category, *inclusion, cat)
        assert sk.retraction._arrays == by_name(cat, *retraction, sk.category)

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_equivariant_skeleton(self, action):
        cat, esk = action.space, groupact.equivariant_skeleton(action)
        gamma = esk.inclusion.source
        rep_of = {x: cat.source(esk.eta[x]) for x in cat.objects}  # eta_x: rep(x) -> x
        _, inclusion, retraction, _ = reference_retract(cat, rep_of, gamma.name)
        assert esk.inclusion._arrays == by_name(gamma, *inclusion, cat)
        assert esk.retraction._arrays == by_name(cat, *retraction, gamma)

    @settings(max_examples=30, deadline=None)
    @given(strict_diagrams)
    def test_alphas(self, d):
        res = hocolim.grothendieck(d)
        for i, alpha in res.alphas.items():
            ci = d.vertex[i]
            obj_map = {c: _pair_obj(i, c) for c in ci.objects}
            mor_map = {m: _triple_mor(d.index.identity[i], m, x) for m, x, _ in ci._arrows()}
            assert alpha._arrays == by_name(ci, obj_map, mor_map, res.category)

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_complex_to_pseudo_diagram(self, action):
        cplx = groupact.complex_of_groups(action).complex
        d = groupact.complex_to_pseudo_diagram(cplx)
        for m, fun in d.edge.items():
            hom = cplx.homs[m]
            mor_map = {g: hom(g) for g in hom.source.labels}
            assert fun._arrays == by_name(fun.source, {"*": "*"}, mor_map, fun.target)

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_skeletal_reduction_rbar(self, action):
        """rbar: X/G -> Gamma/G, seen where the report reads it, against
        the maps of the orbits of r."""
        seen, real = [], groupact._fully_faithful

        def spy(a, b, fun):
            seen.append(fun)
            return real(a, b, fun)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groupact, "_fully_faithful", spy)
            red = groupact.skeletal_reduction(action)
        if not seen:
            return
        (rbar,) = seen
        qx, qg, r = groupact.quotient(action), groupact.quotient(red.action), red.retraction
        obj_map = {qx.object_orbit_of[x]: qg.object_orbit_of[r.obj_map[x]]
                   for x in action.space.objects}
        mor_map = {qx.morphism_orbit_of[m]: qg.morphism_orbit_of[r.mor_map[m]]
                   for m in action.space.morphism_names()}
        assert rbar._arrays == by_name(rbar.source, obj_map, mor_map, rbar.target)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_set_diagram(self, data):
        index = zoo.pushout_scwol()  # g: j -> k, h: j -> l
        sizes = {i: data.draw(st.integers(0 if i == "j" else 1, 3), label=i) for i in "jkl"}
        sets = {i: [f"{i}{n}" for n in range(size)] for i, size in sizes.items()}
        maps = {m: {x: data.draw(st.sampled_from(sets[t]), label=f"{m}({x})") for x in sets["j"]}
                for m, t in (("g", "k"), ("h", "l"))}
        d = set_diagram(index, sets, maps)
        for m, fn in maps.items():
            fun = d.edge[m]
            src, tgt = fun.source, fun.target
            mor_map = {src.identity[x]: tgt.identity[fn[x]] for x in src.objects}
            assert fun._arrays == by_name(src, fn, mor_map, tgt)

    def test_set_diagram_rejections_unchanged(self):
        """A missing or foreign image raises the KeyError it raised when
        the maps were written by name."""
        index, sets = zoo.pushout_scwol(), {"j": ["a", "b"], "k": ["c"], "l": ["d"]}
        maps = {"h": {"a": "d", "b": "d"}}
        with pytest.raises(KeyError) as info:
            set_diagram(index, sets, {**maps, "g": {"a": "c"}})
        assert info.value.args == ("b",)
        with pytest.raises(KeyError) as info:
            set_diagram(index, sets, {**maps, "g": {"a": "x", "b": "c"}})
        assert info.value.args == ("x",)

    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_a_repeated_manifest_functor_shares_the_first_arrays(self, d):
        """Each edge along an identity of a constant diagram repeats the
        first one's maps: it keeps its own maps and shares the first
        one's arrays, which are those of its maps."""
        cat = next(iter(d.vertex.values()))
        payload = json.loads(manifest._dumps(manifest._manifest("diagram", constant_diagram(d.index, cat))))
        loaded = manifest.parse(payload)[1]
        first = loaded.edge[d.index.morphism_names()[0]]
        for m, x, y in loaded.index._arrows():
            fun = loaded.edge[m]
            assert fun.obj_map is payload["payload"]["edges"][m]["objects"]
            assert fun._arrays is first._arrays
            assert fun._arrays == by_name(fun.source, fun.obj_map, fun.mor_map, fun.target)

    def test_checked_holds_the_first_functor(self):
        cat = zoo.one_object_category(cyclic_group(3))
        maps = {"objects": {"*": "*"}, "morphisms": {m: m for m in cat.morphism_names()}}
        checked = {}
        first = manifest._functor_from_payload(maps, cat, cat, "u", checked)
        again = manifest._functor_from_payload(maps, cat, cat, "v", checked)
        assert checked == {(cat._ends, cat._ends): first}
        assert again is not first and again._arrays is first._arrays


class TestDrawnByIndex:
    """``random_groupoid_functor`` draws what the name route drew."""

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, SEEDS, st.integers(1, 5), st.integers(1, 4))
    def test_same_draw_as_the_name_route(self, seed, draw_seed, max_objects, max_group_order):
        rng = Random(seed)
        src = randgen.random_groupoid(rng, max_objects, max_group_order, tag="s")
        tgt = randgen.random_groupoid(rng, max_objects, max_group_order, tag="t")
        got_rng, want_rng = Random(draw_seed), Random(draw_seed)
        got = randgen.random_groupoid_functor(got_rng, src, tgt)
        want = reference_random_groupoid_functor(want_rng, src, tgt)
        assert "obj_map" not in vars(got) and "mor_map" not in vars(got)
        assert_same_functor(got, want)
        assert got._arrays == want._arrays
        assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 1009])
    def test_audit_edges(self, seed, monkeypatch):
        """Every edge functor of the ``audit`` set-up's diagrams, drawn both
        ways."""
        workloads = load_workloads()
        got = workloads.audit_instances(seed, 40)[0]
        monkeypatch.setattr(randgen, "random_groupoid_functor", reference_random_groupoid_functor)
        want = workloads.audit_instances(seed, 40)[0]
        assert len(got) == len(want)
        groupoid_edges = 0
        for d, e in zip(got, want):
            assert d.index.objects == e.index.objects
            for m in d.index.morphism_names():
                f, g = d.edge[m], e.edge[m]
                assert dict(f.obj_map) == dict(g.obj_map) and dict(f.mor_map) == dict(g.mor_map)
                assert f._arrays == g._arrays
                groupoid_edges += not d.index.is_identity(m) and f.source.name.startswith("gpd(")
        assert groupoid_edges > 30

    def test_swapped_loops_are_caught(self):
        """Non-vacuity: arrays written with the i and j loops swapped send
        (g; i, j) to (hom(g); a_j, a_i), and fail the comparison."""

        def swapped(rng, src, tgt):
            comp, (target,) = src.components[0], tgt.components
            img = _image_of(rng.choice(randgen.homs_between(comp.group, target.group)))
            size, order = len(target.objects), target.group.order
            assign = [rng.randrange(size) for _ in comp.objects]
            fm = [at + h for at in [(a * size + b) * order for b in assign for a in assign]
                  for h in img]
            return _trusted(CatFunctor, source=src.category, target=tgt.category,
                            _arrays=(list(assign), fm))

        src = randgen.groupoid_union([(cyclic_group(2), 2, "s")])
        tgt = randgen.groupoid_union([(cyclic_group(2), 3, "t")])
        caught = 0
        for seed in range(10):
            got = swapped(Random(seed), src, tgt)
            want = reference_random_groupoid_functor(Random(seed), src, tgt)
            try:
                assert_same_functor(got, want)
            except AssertionError:
                caught += 1
        assert caught > 0


class TestRejections:
    def test_a_missing_key_and_an_unhashable_image(self):
        """The walk's faults, pinned by class and message."""
        cat = zoo.pushout_scwol()
        obj_map, mor_map = identity_maps(cat)
        cases = [
            ({**obj_map, "k": ["k"]}, mor_map, TypeError, "unhashable type: 'list'"),
            (obj_map, {**mor_map, "g": ["g"]}, TypeError, "unhashable type: 'list'"),
            ({x: y for x, y in obj_map.items() if x != "l"}, mor_map, NotAFunctor,
             "object map undefined or out of range at 'l'"),
            (obj_map, {m: n for m, n in mor_map.items() if m != "h"}, NotAFunctor,
             "morphism map undefined at 'h'"),
        ]
        for objs, mors, cls, message in cases:
            with pytest.raises(cls) as info:
                CatFunctor(cat, cat, objs, mors)
            assert type(info.value) is cls and str(info.value) == message

    def test_the_guard_after_the_walk(self):
        """A map whose first read fails and whose later reads succeed gets
        past the walk, and the guard re-raises the first read's KeyError."""

        class FailsOnce(dict):
            failed = False

            def __getitem__(self, key):
                if not self.failed:
                    self.failed = True
                    raise KeyError(key)
                return super().__getitem__(key)

        cat = zoo.pushout_scwol()
        obj_map, mor_map = identity_maps(cat)
        with pytest.raises(KeyError) as info:
            CatFunctor(cat, cat, FailsOnce(obj_map), mor_map)
        assert info.value.args == ("j",)

    @pytest.mark.parametrize("fo, fm, message, witness", [
        ([0, 1], [0, 1, 2, 3, 4], "2 images for 3 objects", {"law": "objects", "at": 2}),
        ([0, 1, 2], [0, 1, 2, 3], "4 images for 5 morphisms", {"law": "morphisms", "at": 4}),
        ([0, 1, 3], [0, 1, 2, 3, 4], "image of 'l' is out of range", {"law": "objects", "at": "l"}),
        ([0, -1, 2], [0, 1, 2, 3, 4], "image of 'k' is out of range", {"law": "objects", "at": "k"}),
        ([0, 1, 2], [0, 1, 2, 3.0, 4], "image of 'g' is out of range",
         {"law": "morphisms", "at": "g"}),
        ([0, 1, 2], [0, 1, True, 3, 4], "image of 'id_l' is out of range",
         {"law": "morphisms", "at": "id_l"}),
    ], ids=["short-objects", "short-morphisms", "object-past-end", "negative", "float", "bool"])
    def test_arrays_of_the_wrong_length_or_range(self, fo, fm, message, witness):
        cat = zoo.pushout_scwol()  # objects j, k, l; morphisms id_j, id_k, id_l, g, h
        with pytest.raises(NotAFunctor) as info:
            CatFunctor.from_arrays(cat, cat, fo, fm)
        assert (str(info.value), info.value.witness) == (message, witness)

    @settings(max_examples=60, deadline=None)
    @given(strict_diagrams, SEEDS)
    def test_laws_as_the_names_constructor(self, d, seed):
        """Arrays with one image changed fail as the same maps by name do."""
        rng = Random(seed)
        fun = d.edge[rng.choice(d.index.morphism_names())]
        fo, fm = map(list, fun._arrays)
        t = fun.target._ends
        if fm:
            fm[rng.randrange(len(fm))] = rng.randrange(len(t.src))
        s_names, t_names = fun.source.morphism_names(), t.names
        maps = (dict(zip(fun.source.objects, [fun.target.objects[x] for x in fo])),
                dict(zip(s_names, [t_names[k] for k in fm])))
        assert failure(CatFunctor.from_arrays, fun.source, fun.target, fo, fm) == \
            failure(CatFunctor, fun.source, fun.target, *maps)


@pytest.fixture
def functor_views(monkeypatch):
    """The (functor source, map) of each ``CatFunctor._make`` call."""
    made, real = [], CatFunctor._make

    def spy(fun, attr):
        made.append((fun.source.name, attr))
        return real(fun, attr)

    monkeypatch.setattr(CatFunctor, "_make", spy)
    return made


class TestAuditMakesNoFunctorViews:
    def test_set_up_and_formula_tasks(self, functor_views, tmp_path):
        tasks = load_workloads().audit_setup(0, str(tmp_path), "full")
        formula = [t for t in tasks if t.key.startswith("audit/formula")]
        assert len(formula) == 1500
        for task in formula:
            task.run()
        assert functor_views == []

    def test_a_planted_read_is_seen(self, functor_views, tmp_path, monkeypatch):
        """Non-vacuity: an identity functor constructor that reads its
        object map back makes a view on every identity edge drawn (the
        drawn diagrams call no checked arrays constructor)."""
        identity_functor = CatFunctor.identity_functor

        def reading(*args):
            fun = identity_functor(*args)
            fun.obj_map
            return fun

        monkeypatch.setattr(CatFunctor, "identity_functor", staticmethod(reading))
        load_workloads().audit_setup(0, str(tmp_path), "tiny")
        assert functor_views and {attr for _, attr in functor_views} == {"obj_map"}
