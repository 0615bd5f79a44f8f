"""Every law that is checked on generators goes through one kernel.

``groups._check_on_generators`` takes the generators of a group or of a
category's rows, runs the caller's test at each, and on a failure calls the
caller's locator, which walks every case in order and raises.  The five
checks of this kind (associativity, ``GroupHom``, the action homomorphism
law, a functor's composition law and the naturality squares) all call it.
Associativity is one check, ``groups._check_associative``, which both
``FinGroup`` and ``_Rows.check_laws`` call, and whose locator is
``groups._unassociative``.  The kernel is spied on here, and the checks are
compared, by class, message and witness, with copies of the loops they
replaced (``helpers.reference_group_checks``,
``helpers.reference_check_laws_rows``, ``helpers.reference_group_hom_checks``,
``helpers.reference_all_homs``).
"""

import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import fincat, groupact, groups, hocolim, manifest, randgen, zoo
from eulcat.errors import EulcatError
from eulcat.fincat import CatFunctor, FinCat, NonAssociative
from eulcat.groups import FinGroup, GroupHom, cyclic_group, symmetric_group

from helpers import (
    identity_maps,
    load_workloads,
    monoid_z2_mult,
    reference_all_homs,
    reference_check_laws_rows,
    reference_group_checks,
    reference_group_hom_checks,
)
from strategies import SEEDS, groupoids, pseudo_diagrams, scwols

KERNEL_USERS = ("groups", "fincat", "groupact")
POOL = randgen.group_pool() + [cyclic_group(8), symmetric_group(4)]
pool_groups = st.sampled_from(POOL)


def outcome(fn, *args):
    """None on success, else the class, message and witness of the failure."""
    try:
        fn(*args)
    except EulcatError as exc:
        return type(exc), str(exc), exc.witness
    return None


@pytest.fixture
def kernel_callers(monkeypatch):
    """The qualified names of the functions that call the kernel, in call
    order, while the test runs."""
    callers, real = [], groups._check_on_generators

    def spy(of, holds, locate):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return real(of, holds, locate)

    for module in KERNEL_USERS:
        monkeypatch.setattr(f"eulcat.{module}._check_on_generators", spy)
    return callers


@pytest.fixture
def associativity_callers(monkeypatch):
    """The qualified names of the functions that call the shared
    associativity check, in call order, while the test runs."""
    callers, real = [], groups._check_associative

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return real(*args)

    for module in ("groups", "fincat"):
        monkeypatch.setattr(f"eulcat.{module}._check_associative", spy)
    return callers


def generating_set_calls(monkeypatch) -> list:
    """The calls of ``groups._generating_set``, by either module that calls
    it, while the test runs."""
    calls, real = [], groups._generating_set
    for module in (groups, fincat):
        monkeypatch.setattr(module, "_generating_set", lambda *a: calls.append(a) or real(*a))
    return calls


def pseudo_diagram():
    return hocolim.PseudoDiagram.from_strict(
        hocolim.constant_diagram(zoo.pushout_scwol(), monoid_z2_mult()))


class TestEveryCheckCallsTheKernel:
    def test_group(self, kernel_callers, associativity_callers):
        """``FinGroup`` calls the shared associativity check, which calls
        the kernel."""
        s3 = symmetric_group(3)
        kernel_callers.clear()
        associativity_callers.clear()
        FinGroup(s3.labels, s3.table, "S3")
        assert associativity_callers == ["FinGroup.__post_init__"]
        assert kernel_callers == ["_check_associative"]

    def test_homomorphism(self, kernel_callers):
        z4 = cyclic_group(4)
        kernel_callers.clear()
        GroupHom(z4, z4, {a: a for a in z4.labels})
        assert kernel_callers == ["GroupHom.__post_init__"]

    def test_action(self, kernel_callers):
        action = randgen.rotation_action(6)
        kernel_callers.clear()
        groupact.ScwolAction(action.group, action.space, action.on_objects, action.on_morphisms)
        assert "_check_homomorphism_law" in kernel_callers

    def test_functor(self, kernel_callers):
        cat = zoo.one_object_category(cyclic_group(3))
        kernel_callers.clear()
        CatFunctor(cat, cat, *identity_maps(cat))
        assert kernel_callers == ["_check_functor_arrays"]

    def test_natural(self, kernel_callers):
        p = pseudo_diagram()
        kernel_callers.clear()
        hocolim.PseudoDiagram(p.index, p.vertex, p.edge, p.comp, p.unit)
        assert kernel_callers and set(kernel_callers) == {"_check_natural"}

    def test_check_laws(self, kernel_callers, associativity_callers):
        """``_Rows.check_laws``, under ``validate`` and the checked
        constructor alike, calls the same associativity check as
        ``FinGroup``, which calls the kernel."""
        cat = zoo.one_object_category(cyclic_group(5))
        kernel_callers.clear()
        associativity_callers.clear()
        fincat.validate(manifest.category_payload(cat), "B")
        FinCat(cat.objects, cat.morphisms, cat.identity, cat.composition, "B")
        assert associativity_callers == ["_Rows.check_laws"] * 2
        assert kernel_callers == ["_check_associative"] * 2


class TestTheKernel:
    def test_it_tests_only_the_generators(self):
        rows = zoo.one_object_category(symmetric_group(3))._ends
        seen = []
        gens = groups._check_on_generators(rows, lambda s: seen.append(s) or True, None)
        assert seen == gens == rows.generators()
        assert len(gens) < len(rows.names) - 1

    def test_a_failure_calls_the_locator(self):
        group = cyclic_group(6)

        def locate():
            raise ValueError("located")

        with pytest.raises(ValueError, match="located"):
            groups._check_on_generators(group, lambda s: False, locate)

    def test_a_locator_that_finds_nothing_is_an_error(self):
        """A locator must raise; one that returns is a fault of the caller,
        not a pass."""
        with pytest.raises(AssertionError, match="locator found no fault"):
            groups._check_on_generators(cyclic_group(6), lambda s: False, lambda: None)

    def test_a_checked_source_finds_no_generators(self, monkeypatch):
        """A checked group keeps the generators of its check, so a
        homomorphism from it finds none afresh; a group built unchecked has
        none kept and finds them each time."""
        s4 = symmetric_group(4)
        sub = s4.subgroup(["0123", "1032", "2301", "3210"], "V")
        calls = generating_set_calls(monkeypatch)
        GroupHom(s4, s4, {a: a for a in s4.labels})
        assert calls == []
        GroupHom(sub, sub, {a: a for a in sub.labels})
        assert len(calls) == 1 and sub._gens is None

    @pytest.mark.parametrize("cat", [
        zoo.one_object_category(symmetric_group(3)),
        monoid_z2_mult(),
        randgen.random_groupoid(Random(5)).category,
    ], ids=lambda c: c.name)
    def test_a_validated_source_finds_no_generators(self, cat, monkeypatch):
        """A validated non-thin category keeps the generators of its
        associativity check, so a functor from it finds none afresh; one
        written unchecked finds them on its first check."""
        assert not fincat._is_thin(cat)
        store = fincat.validate(manifest.category_payload(cat), cat.name)
        unchecked = cat._ends.gens is None
        calls = generating_set_calls(monkeypatch)
        CatFunctor(store, store, *identity_maps(store))
        assert calls == []
        CatFunctor(cat, cat, *identity_maps(cat))
        assert len(calls) == unchecked


class TestValidCategoriesSkipTheWalk:
    """``_Rows.check_laws`` tests associativity at the generators only:
    on a lawful non-thin category the walk over every middle factor
    (``groups._unassociative``) never runs, and the generators of the check
    are kept in ``gens``."""

    @pytest.mark.parametrize("cat", [
        zoo.one_object_category(cyclic_group(6)),
        zoo.one_object_category(symmetric_group(3)),
        monoid_z2_mult(),
    ], ids=lambda c: c.name)
    def test_no_full_walk(self, cat, monkeypatch):
        assert not fincat._is_thin(cat)
        seen, real = [], groups._unassociative
        monkeypatch.setattr(groups, "_unassociative", lambda *a: seen.append(a) or real(*a))
        store = fincat.validate(manifest.category_payload(cat), cat.name)
        FinCat(cat.objects, cat.morphisms, cat.identity, cat.composition, cat.name)
        assert seen == []
        rows = store._ends
        assert rows.gens == groups._generating_set(rows.rows, rows.ident, rows.src, rows.tgt)

    @pytest.mark.parametrize("n", [2, 7, 30, 120])
    def test_a_cyclic_group_has_one_generator(self, n):
        store = fincat.validate(manifest.category_payload(
            zoo.one_object_category(cyclic_group(n))), "B")
        assert store._ends.gens == [1]


def broken_table(group, rng):
    """The Cayley table of ``group`` with one product changed."""
    n = group.order
    table = [list(row) for row in group.table]
    a, b = rng.randrange(n), rng.randrange(n)
    table[a][b] = (table[a][b] + rng.randrange(1, n)) % n if n > 1 else 0
    return tuple(map(tuple, table))


class TestGroupsAgainstTheirLoops:
    @settings(max_examples=80, deadline=None)
    @given(pool_groups, SEEDS)
    def test_one_broken_product(self, group, seed):
        table = broken_table(group, Random(seed))
        assert outcome(FinGroup, group.labels, table, group.name) == \
            outcome(reference_group_checks, group.labels, table, group.name)

    @settings(max_examples=80, deadline=None)
    @given(pool_groups, pool_groups, SEEDS, st.booleans())
    def test_one_broken_image(self, source, target, seed, unchecked):
        rng = Random(seed)
        if unchecked:  # a subgroup is built unchecked and keeps no generators
            source = source.subgroup(source.labels, "H")
        hom = rng.choice(groups.all_homs(source, target))
        mapping = dict(hom.mapping)
        mapping[rng.choice(source.labels)] = rng.choice(target.labels)
        assert outcome(GroupHom, source, target, mapping) == \
            outcome(reference_group_hom_checks, source, target, mapping)

    def test_associativity_fault_at_a_non_generator(self):
        """Non-vacuity: the first failing triple's middle factor is no
        generator, so the locator names it, not the generator pass."""
        s3 = symmetric_group(3)
        seen = set()
        for a in range(6):
            for b in range(6):
                for v in range(6):
                    table = [list(row) for row in s3.table]
                    table[a][b] = v
                    got = outcome(FinGroup, s3.labels, tuple(map(tuple, table)), "S3")
                    if got and "associative" in got[1]:
                        assert got == outcome(reference_group_checks, s3.labels, table, "S3")
                        seen.add(s3.index(got[2][1]))
        assert seen - set(s3._gens)

    def test_homomorphism_fault_at_a_non_generator(self):
        """Non-vacuity: on Z/6, generated by 1, the trivial map with 3 sent
        to 1 first fails at (1, 2), whose right factor is no generator."""
        z6 = cyclic_group(6)
        mapping = {a: "0" for a in z6.labels} | {"3": "1"}
        got = outcome(GroupHom, z6, z6, mapping)
        assert got == outcome(reference_group_hom_checks, z6, z6, mapping)
        assert got[2] == {"pair": ("1", "2")} and z6._gens == [1]


def reference_verdict(payload, name="C"):
    """``outcome`` of ``validate`` with ``_Rows.check_laws`` as it was
    (``helpers.reference_check_laws_rows``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fincat._Rows, "check_laws", reference_check_laws_rows)
        return outcome(fincat.validate, payload, name)


def breakable(payload) -> list[tuple[int, str]]:
    """Each composite g o f of a manifest, g and f no identity, as its
    entry's place, with each other morphism with its endpoints, in entry
    order, then by morphism order of the replacement."""
    ends = {m["id"]: (m["source"], m["target"]) for m in payload["morphisms"]}
    ids = set(payload["identity"].values())
    return [(k, m) for k, (g, f, gf) in enumerate(payload["compose"])
            if g not in ids and f not in ids for m in ends if m != gf and ends[m] == ends[gf]]


def broken(payload, k: int, m: str) -> dict:
    """``payload`` with the composite of entry ``k`` replaced by ``m``."""
    compose = [list(e) for e in payload["compose"]]
    compose[k][2] = m
    return dict(payload, compose=compose)


def single_breaks(cat):
    """Each manifest of ``cat`` with one ``breakable`` composite replaced."""
    payload = manifest.category_payload(cat)
    return (broken(payload, k, m) for k, m in breakable(payload))


def one_break(cat, rng):
    """A random one of ``single_breaks(cat)``, or None if there is none."""
    payload = manifest.category_payload(cat)
    choices = breakable(payload)
    return broken(payload, *rng.choice(choices)) if choices else None


def rows_checked(monkeypatch) -> list:
    """The rows ``_Rows.check_laws`` was called on while the test runs."""
    seen, real = [], fincat._Rows.check_laws
    monkeypatch.setattr(fincat._Rows, "check_laws", lambda self, name: seen.append(self)
                        or real(self, name))
    return seen


def skip_last_generator(of, holds, locate):
    """A planted kernel that tests every generator but the last."""
    gens = groups._gens_of(of) if isinstance(of, FinGroup) else of.generators()
    if not all(map(holds, gens[:-1])):
        locate()
    return gens


non_thin = st.one_of(
    groupoids.map(lambda g: g.category),
    scwols,
    pseudo_diagrams.map(hocolim.grothendieck_pseudo),
    pool_groups.map(zoo.one_object_category),
    st.just(monoid_z2_mult()),
).filter(lambda c: not fincat._is_thin(c))


class TestCategoriesAgainstTheWalk:
    """``_Rows.check_laws`` against the walk it replaced, which took every
    morphism as a middle factor: the same class, message and witness on
    every broken table."""

    @settings(max_examples=120, deadline=None)
    @given(non_thin, SEEDS)
    def test_one_broken_composite(self, cat, seed):
        payload = one_break(cat, Random(seed))
        if payload is not None:
            assert outcome(fincat.validate, payload, cat.name) == \
                reference_verdict(payload, cat.name)

    @pytest.mark.parametrize("q", [4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 1009])
    def test_the_bench_payloads(self, q, seed):
        payload = load_workloads()._break_associativity(q, Random(seed))["payload"]
        got = outcome(fincat.validate, payload)
        assert got[0] is NonAssociative and got == reference_verdict(payload)

    @pytest.mark.parametrize("cat", [
        zoo.one_object_category(cyclic_group(4)),
        zoo.one_object_category(symmetric_group(3)),
        randgen.groupoid_union([(cyclic_group(3), 2, "a")]).category,
    ], ids=lambda c: c.name)
    def test_every_single_break(self, cat, monkeypatch):
        """Every single break of a small category, the first fault's middle
        factor a generator of the broken table or not."""
        checked = rows_checked(monkeypatch)
        middles = set()
        for payload in single_breaks(cat):
            checked.clear()
            got = outcome(fincat.validate, payload, cat.name)
            assert got == reference_verdict(payload, cat.name)
            if got and got[0] is NonAssociative:
                rows, = checked
                middles.add(rows.index[got[2]["g"]] in rows.gens)
        assert middles == {True, False}

    def test_a_fault_first_at_a_non_generator(self, monkeypatch):
        """Non-vacuity: on B(S3) with (021) o (201) made the identity, the
        first broken triple in the walk has the middle factor 201, which is
        no generator of the broken table (those are 021 and 102); the check
        still rejects it and names that triple.  By Light's test some triple
        through a generator fails too, later in the walk."""
        payload = manifest.category_payload(zoo.one_object_category(symmetric_group(3)))
        entry = next(e for e in payload["compose"] if e[:2] == ["021", "201"])
        assert entry[2] == "102"
        entry[2] = "012"
        checked = rows_checked(monkeypatch)
        got = outcome(fincat.validate, payload, "BS3")
        assert got == reference_verdict(payload, "BS3")
        assert got[0] is NonAssociative and got[2] == {"h": "021", "g": "201", "f": "021"}
        (rows,) = checked
        assert [rows.names[g] for g in rows.gens] == ["021", "102"]
        assert rows.index["201"] not in rows.gens

    def test_skipping_the_last_generator_misses_a_fault(self, monkeypatch):
        """Non-vacuity: on B(Z/4) + B(Z/4), whose generators are one per
        component, a kernel that skips the last generator accepts a table
        broken in the second component, which the real one rejects."""
        cat = randgen.groupoid_union([(cyclic_group(4), 1, "a"), (cyclic_group(4), 1, "b")]).category
        checked, missed = rows_checked(monkeypatch), 0
        for payload in single_breaks(cat):
            checked.clear()
            real = outcome(fincat.validate, payload, cat.name)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(groups, "_check_on_generators", skip_last_generator)
                planted = outcome(fincat.validate, payload, cat.name)
            if real and real[0] is NonAssociative and not (planted and planted[0] is NonAssociative):
                assert len(checked[0].gens) == 2 and real[2]["g"].startswith("b")
                missed += 1
        assert missed


@pytest.mark.parametrize("source", POOL, ids=lambda g: g.name)
def test_all_homs_as_the_backtracking_search(source):
    """The homomorphisms extended from the generators' images are the
    backtracking search's, in its order."""
    for target in POOL:
        if source.order * target.order > 150:
            continue
        got = groups.all_homs(source, target)
        want = reference_all_homs(source, target)
        assert [h.mapping for h in got] == [h.mapping for h in want]
