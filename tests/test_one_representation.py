"""One category representation: a FinCat keeps its rows, and names are views.

The checked constructor keeps its name, its objects, the identity map it
was given, its rows (``_ends``) and direct finiteness.  The records, the
table, the lookup tables and the inverse map are ``_OnFirstRead`` views,
made on their first read.  Each view is compared with the fields the
constructor once kept eagerly (``helpers.reference_name_fields``); the row
accessors and the set-up of the ``audit`` benchmark make no view, and every
rejection of the record check keeps its class, message, witness and order
(``helpers.reference_check_records``).  A Grothendieck total answers the
same accessors off the names and endpoints on its rows (a ``_Rows`` like
every category's), makes its composition rows only when they are read
(``compose``, ``lower_link``, a functor check, the writer) and keeps them,
with no reference back to the total.
"""

import gc
import importlib.util
import weakref
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import fincat, hocolim, manifest, randgen, zoo
from eulcat.errors import EulcatError
from eulcat.fincat import CatFunctor, FinCat, Morphism
from eulcat.groups import cyclic_group, klein_four_group
from eulcat.ratlin import chi_L

import strategies
from helpers import (
    gamma_one,
    gamma_two,
    loaded,
    monoid_z2_mult,
    reference_check_records,
    reference_name_fields,
    split_idempotent,
    two_object_ei_category,
)
from strategies import SEEDS, groupoids, posets, scwols

ROOT = Path(__file__).resolve().parents[1]
VIEWS = ("morphisms", "composition", "_hom", "_by_source", "_invertible")


def load_memory_script():
    spec = importlib.util.spec_from_file_location("memory", ROOT / "scripts" / "memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


memory = load_memory_script()

ZOO = {
    "discrete": lambda: zoo.discrete_category("abc"),
    "terminal": zoo.terminal_category,
    "pushout": zoo.pushout_scwol,
    "parallel": zoo.parallel_pair_scwol,
    "arrow": zoo.arrow_category,
    "a->t": zoo.terminal_arrow_poset,
    "circle": zoo.circle_scwol,
    "subsets3": lambda: zoo.subsets_poset_opposite(3),
    "polygon5": lambda: zoo.polygon_scwol(5),
    "BZ3": lambda: zoo.one_object_category(cyclic_group(3)),
    "Z2-mult": monoid_z2_mult,
    "E(a,b,c)": lambda: zoo.contractible_groupoid("abc"),
    "inflated": lambda: zoo.inflate(zoo.pushout_scwol(), {"k": 2, "j": 3}),
    "gamma1": gamma_one,
    "gamma2": gamma_two,
    "two-object": lambda: two_object_ei_category(
        klein_four_group(), {g: {"p": "p"} for g in klein_four_group().labels}, ("p",)),
    "cone": lambda: zoo.cone(zoo.circle_scwol()),
    "split": split_idempotent,
}

FAMILIES = {
    "skeletal_scwols": strategies.skeletal_scwols,
    "scwols": scwols,
    "posets": posets,
    "groupoids": groupoids,
    "small_groupoids": strategies.small_groupoids,
    "strict_diagrams": strategies.strict_diagrams,
    "free_actions": strategies.free_actions,
    "actions": strategies.actions,
    "pseudo_diagrams": strategies.pseudo_diagrams,
    "chains": strategies.chains(),
}


def views_held(root) -> list[tuple[str, str]]:
    """(category, view) for each view held by a FinCat reachable from ``root``."""
    return [(cat.name, attr) for cat in memory.categories(root) for attr in VIEWS
            if attr in vars(cat)]


@pytest.fixture
def makes(monkeypatch):
    """The (category, field) of each ``FinCat._make`` call."""
    made, real = [], FinCat._make

    def spy(cat, attr):
        made.append((cat.name, attr))
        return real(cat, attr)

    monkeypatch.setattr(FinCat, "_make", spy)
    return made


class TestNoViewsAfterConstruction:
    @pytest.mark.parametrize("build", ZOO.values(), ids=ZOO.keys())
    def test_zoo(self, build):
        cat = build()
        assert set(VIEWS).isdisjoint(vars(cat)), cat.name
        assert views_held(cat) == []

    @pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_strategy_families(self, family, data):
        drawn = data.draw(family)
        assert memory.categories(drawn)
        assert views_held(drawn) == []

    def test_the_walk_sees_a_view(self):
        """Non-vacuity: a view read on a vertex of a drawn diagram is seen."""
        d = randgen.random_strict_diagram(Random(5))
        assert views_held(d) == []
        vertex = next(iter(d.vertex.values()))
        vertex.composition
        assert views_held(d) == [(vertex.name, "composition")]

    @pytest.mark.parametrize("build", ZOO.values(), ids=ZOO.keys())
    def test_row_accessors_make_none(self, build, makes):
        stored = fincat.validate(manifest.category_payload(build()), name="stored")
        cat = build()
        makes.clear()  # a builder may read its input's names
        for each in (cat, stored):
            names = each.morphism_names()
            arrows = list(each._arrows())
            assert [m for m, _, _ in arrows] == list(names)
            for m, x, y in arrows:
                assert (each.source(m), each.target(m)) == (x, y)
                assert each.is_identity(m) == (each._ends.ident[each._ends.src[
                    each._ends.index[m]]] == each._ends.index[m])
                for g in names:
                    if each.source(g) == y:
                        each.compose(g, m)
            for x in each.objects:
                assert each.has_object(x)
                each.require_object(x)
            assert not each.has_object("no such object")
            assert len(each) == len(each.objects)
        assert makes == []
        assert set(VIEWS).isdisjoint(vars(cat))

    def test_compose_raises_key_error_off_the_table(self):
        cat = zoo.pushout_scwol()
        with pytest.raises(KeyError):
            cat.compose("g", "h")  # h: j -> l, g: j -> k
        with pytest.raises(KeyError):
            cat.compose("nosuch", "id_j")
        with pytest.raises(KeyError):
            cat.source("nosuch")
        assert cat.compose("id_k", "g") == "g"

    def test_a_name_read_makes_views_on_first_read_only(self, makes):
        cat = zoo.pushout_scwol()
        assert cat.hom("j", "k") == ("g",)
        assert cat.morphisms_from("j") == ("id_j", "g", "h")
        assert not cat.is_invertible("g") and cat.inverse("id_j") == "id_j"
        cat.morphisms, cat._by_source, cat.composition, cat.composition
        assert makes == [("P", "_hom"), ("P", "_invertible"), ("P", "composition")]


def shuffled_inputs(cat, seed):
    """The records, identity map and table of ``cat``, with the table's
    entries in a shuffled order, as a hand-built category hands them in."""
    entries = list(cat.composition.items())
    Random(seed).shuffle(entries)
    return cat.objects, tuple(cat.morphisms), dict(cat.identity), dict(entries)


def assert_views_as_kept(cat, want):
    for attr in VIEWS:
        got = getattr(cat, attr)
        if isinstance(got, dict):
            assert list(got.items()) == list(want[attr].items()), attr
        else:
            assert got == want[attr], attr


class TestViewsMatchTheKeptFields:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(scwols, posets, groupoids.map(lambda g: g.category),
                     st.builds(loaded, scwols, SEEDS)), SEEDS)
    def test_drawn(self, cat, seed):
        objects, morphisms, identity, table = shuffled_inputs(cat, seed)
        built = FinCat(objects, morphisms, identity, table, name=cat.name)
        assert set(VIEWS).isdisjoint(vars(built))
        assert built.identity is identity
        assert_views_as_kept(built, reference_name_fields(objects, morphisms, identity, table))

    @pytest.mark.parametrize("build", ZOO.values(), ids=ZOO.keys())
    def test_zoo(self, build):
        cat = build()
        objects, morphisms, identity, table = shuffled_inputs(cat, len(cat.morphisms))
        built = FinCat(objects, morphisms, identity, table, name=cat.name)
        assert_views_as_kept(built, reference_name_fields(objects, morphisms, identity, table))

    def test_a_wrong_view_is_caught(self):
        """Non-vacuity: a table read back in another order fails."""
        cat = zoo.polygon_scwol(3)
        objects, morphisms, identity, table = shuffled_inputs(cat, 1)
        built = FinCat(objects, morphisms, identity, table)
        want = reference_name_fields(objects, morphisms, identity, dict(reversed(table.items())))
        with pytest.raises(AssertionError):
            assert_views_as_kept(built, want)


def failure(fn, *args):
    try:
        fn(*args)
    except EulcatError as exc:
        return type(exc), str(exc), exc.witness
    return None


def corrupt(cat, rng):
    """The records and identity map of ``cat`` with one to three faults of
    the record check, each drawn from its kinds."""
    objects, mors, identity = list(cat.objects), list(cat.morphisms), dict(cat.identity)
    for _ in range(rng.randint(1, 3) if mors else 0):
        how, k = rng.randrange(7), rng.randrange(len(mors))
        m = mors[k]
        if how == 0:
            objects.insert(rng.randrange(len(objects) + 1), rng.choice(objects))
        elif how == 1:
            mors[k] = Morphism(rng.choice(mors).name, m.source, m.target)
        elif how == 2:
            mors[k] = Morphism(m.name, m.source, "ghost") if rng.random() < 0.5 else \
                Morphism(m.name, "ghost", m.target)
        elif how == 3:
            identity.pop(rng.choice(objects), None)
        elif how == 4:
            identity[rng.choice(objects)] = "ghost"
        elif how == 5:
            identity[rng.choice(objects)] = m.name
        else:
            identity["ghost"] = m.name
    return tuple(objects), tuple(mors), identity


class TestRejectionsUnchanged:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(scwols, groupoids.map(lambda g: g.category)), SEEDS)
    def test_as_the_record_walk(self, cat, seed):
        objects, mors, identity = corrupt(cat, Random(seed))
        want = failure(reference_check_records, cat.name, objects, mors, identity)
        got = failure(FinCat, objects, mors, identity, dict(cat.composition), cat.name)
        if want is not None:
            assert got == want

    def test_every_kind_is_seen(self):
        """Non-vacuity: over seeds, every message of the record check comes up."""
        text = ""
        for seed in range(300):
            cat = randgen.random_scwol(Random(seed), 4)
            objects, mors, identity = corrupt(cat, Random(seed))
            got = failure(FinCat, objects, mors, identity, dict(cat.composition), cat.name)
            text += f"{got}\n"
        kinds = ["duplicate object ids", "duplicate morphism ids", "has unknown endpoint",
                 "has no identity morphism", "is unknown", "is not an endomorphism of",
                 "identity table names unknown object"]
        assert [kind for kind in kinds if kind not in text] == []


class TestTotalAccessors:
    def test_name_accessors_make_no_composites(self):
        """On a total, every accessor but ``compose`` reads the names and
        endpoints on its rows, as ``classify``, ``len`` and ``chi_L`` read
        the endpoints; ``compose`` makes the composition rows, once."""
        total = hocolim.grothendieck(randgen.random_strict_diagram(Random(2))).category
        fincat.classify(total)
        assert len(total) == len(total._ends.ident)
        chi_L(total)
        names = total.morphism_names()
        arrows = list(total._arrows())
        for m, x, y in arrows:
            assert (total.source(m), total.target(m)) == (x, y)
            total.is_identity(m)
        for x in total.objects:
            total.require_object(x)
        assert "rows" not in vars(total._ends)
        assert set(VIEWS).isdisjoint(vars(total))
        for m, _, y in arrows:
            for g in names:
                if total.source(g) == y:
                    assert total.compose(g, m) == total.composition[(g, m)]
        assert vars(total._ends)["rows"] is total._ends.rows

    def test_lower_link_keeps_the_composites(self):
        """``lower_link`` makes a total's composition rows on their first
        read, and a second link reads the same rows."""
        d = hocolim.constant_diagram(zoo.pushout_scwol(), zoo.terminal_arrow_poset())
        total = hocolim.grothendieck(d).category
        assert len(fincat.lower_link(total, total.objects[0]).objects) > 1
        rows = vars(total._ends)["rows"]
        fincat.lower_link(total, total.objects[1])
        assert total._ends.rows is rows


def a_non_thin_scwol_total():
    """A total that is a scwol with two arrows between some two objects, so
    that ``lower_link`` and a functor check into it read its rows."""
    d = hocolim.constant_diagram(zoo.pushout_scwol(), zoo.parallel_pair_scwol())
    return hocolim._grothendieck(d), d


def composites_made(monkeypatch) -> int:
    """How often ``_Numbering.composites`` runs while a total is composed
    in, linked, checked as a functor's target and written twice."""
    calls = []
    real = hocolim._Numbering.composites
    monkeypatch.setattr(hocolim._Numbering, "composites",
                        lambda plan: calls.append(1) or real(plan))
    total, d = a_non_thin_scwol_total()
    (m, _, _), g = next((a, g) for a in total._arrows() for g in total.morphism_names()
                        if total.source(g) == a[2] and not total.is_identity(g))
    total.compose(g, m)
    fincat.lower_link(total, total.objects[0])
    j = d.index.objects[0]
    alpha = hocolim.GrothendieckResult(total, d).alphas[j]
    CatFunctor(alpha.source, total, dict(alpha.obj_map), dict(alpha.mor_map))
    assert manifest._dumps({"c": total}) == manifest._dumps({"c": total})
    return len(calls)


def collected_when_dropped() -> bool:
    """Whether a total whose every field has been made is freed once it is
    dropped, with the cyclic collector off."""
    gc.disable()
    try:
        total, _ = a_non_thin_scwol_total()
        total.composition, total.morphisms, total.identity, total._invertible
        total._ends.index, total._ends.objects, total._ends.order
        manifest._dumps({"c": total})
        ref = weakref.ref(total)
        del total
        return ref() is None
    finally:
        gc.enable()


class TestOneRowStore:
    """Every FinCat keeps a ``_Rows``; a total's are made off its plan on
    first read and kept, and hold no reference back to the total."""

    def test_every_kind_keeps_rows(self):
        total, d = a_non_thin_scwol_total()
        for cat in (total, d.index, zoo.pushout_scwol(), loaded(zoo.pushout_scwol(), 0)):
            assert isinstance(cat._ends, fincat._Rows)

    def test_the_memory_script_reads_only_made_rows(self):
        """``scripts/memory.py`` counts a total's rows once they are made,
        and reading a total there makes none."""
        total, _ = a_non_thin_scwol_total()
        before = memory.deep_size(total._ends, set())
        assert memory.held_rows(total._ends) is None and "rows" not in vars(total._ends)
        rows = total._ends.rows
        assert memory.held_rows(total._ends) is rows
        assert memory.deep_size(total._ends, set()) > before

    def test_the_composites_are_made_once(self, monkeypatch):
        assert composites_made(monkeypatch) == 1

    def test_a_dropped_total_needs_no_collector(self):
        assert collected_when_dropped()

    def test_rows_not_kept_are_seen(self, monkeypatch):
        """Non-vacuity: rows made afresh on every read are counted."""
        # the class holds an ``_OnFirstRead``, which raises on a class read
        monkeypatch.setattr(hocolim._TotalRows, "rows", property(lambda r: r.plan.composites()),
                            raising=False)
        assert composites_made(monkeypatch) > 1

    def test_a_back_reference_is_seen(self, monkeypatch):
        """Non-vacuity: rows that refer back to their total keep it alive
        until the collector runs."""
        real = hocolim._grothendieck

        def linked(d):
            total = real(d)
            total._ends.total = total
            return total

        monkeypatch.setattr(hocolim, "_grothendieck", linked)
        assert not collected_when_dropped()
        gc.collect()


class TestAuditSetUpMakesNoViews:
    def test_audit_instances(self):
        instances = memory.workloads.audit_instances(0, 40)
        cats = memory.categories(instances)
        assert len(cats) > 100
        assert views_held(instances) == []

    def test_a_planted_eager_read_is_seen(self, monkeypatch):
        """Non-vacuity: constructors that read their records back, the
        checked one and the unchecked writer (``fincat._stored``, through
        ``fincat._trusted``), leave one view of them on every category they
        make."""
        real, trusted = FinCat.__post_init__, fincat._trusted

        def eager(self, *flags):
            real(self, *flags)
            self.morphisms

        def eager_trusted(cls, **fields):
            value = trusted(cls, **fields)
            if cls is FinCat:
                value.morphisms
            return value

        monkeypatch.setattr(FinCat, "__post_init__", eager)
        monkeypatch.setattr(fincat, "_trusted", eager_trusted)
        instances = memory.workloads.audit_instances(0, 10)
        held = views_held(instances)
        assert held and {attr for _, attr in held} == {"morphisms", "_hom", "_by_source"}
