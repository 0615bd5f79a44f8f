"""Every law that is checked on generators goes through one kernel.

``groups._check_on_generators`` takes the generators of a group or of a
category's rows, runs the caller's test at each, and on a failure calls the
caller's locator, which walks every case in order and raises.  The five
checks of this kind (``FinGroup``'s associativity, ``GroupHom``, the action
homomorphism law, a functor's composition law and the naturality squares)
all call it; ``_Rows.check_laws`` does not, and still checks associativity
at every non-identity middle factor.  The kernel is spied on here, and the
group checks are compared, by class, message and witness, with copies of
the loops they replaced (``helpers.reference_group_checks``,
``helpers.reference_group_hom_checks``, ``helpers.reference_all_homs``).
"""

import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import fincat, groupact, groups, hocolim, manifest, randgen, zoo
from eulcat.errors import EulcatError
from eulcat.fincat import CatFunctor
from eulcat.groups import FinGroup, GroupHom, cyclic_group, symmetric_group

from helpers import (
    identity_maps,
    monoid_z2_mult,
    reference_all_homs,
    reference_group_checks,
    reference_group_hom_checks,
)
from strategies import SEEDS

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


def generating_set_calls(monkeypatch) -> list:
    """The calls of ``groups._generating_set`` while the test runs."""
    calls, real = [], groups._generating_set
    monkeypatch.setattr(groups, "_generating_set", lambda *a: calls.append(a) or real(*a))
    return calls


def pseudo_diagram():
    return hocolim.PseudoDiagram.from_strict(
        hocolim.constant_diagram(zoo.pushout_scwol(), monoid_z2_mult()))


class TestEveryCheckCallsTheKernel:
    def test_group(self, kernel_callers):
        s3 = symmetric_group(3)
        kernel_callers.clear()
        FinGroup(s3.labels, s3.table, "S3")
        assert kernel_callers == ["FinGroup.__post_init__"]

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

    def test_check_laws_does_not(self, kernel_callers):
        payload = manifest.category_payload(zoo.one_object_category(cyclic_group(5)))
        kernel_callers.clear()
        fincat.validate(payload, "B")
        assert kernel_callers == []


class TestTheKernel:
    def test_it_tests_only_the_generators(self):
        rows = fincat._rows_of(zoo.one_object_category(symmetric_group(3)))
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


class TestCheckLawsStillChecksEveryTriple:
    """Light's test is not in ``_Rows.check_laws`` yet: it passes every
    object's morphisms as middle factors to the associativity routine, and
    finds no generating set."""

    @pytest.mark.parametrize("cat", [
        zoo.one_object_category(cyclic_group(6)),
        zoo.one_object_category(symmetric_group(3)),
        monoid_z2_mult(),
    ], ids=lambda c: c.name)
    def test_every_middle_factor(self, cat, monkeypatch):
        assert not fincat._is_thin(cat)
        seen, real = [], groups._unassociative
        monkeypatch.setattr(fincat, "_unassociative", lambda *a: seen.append(a) or real(*a))
        store = fincat.validate(manifest.category_payload(cat), cat.name)
        (rows, tgt, ident, out, middles), = seen
        assert middles == out == fincat._rows_of(store).out()
        assert sorted(g for gs in middles for g in gs) == list(range(len(rows)))
        assert fincat._rows_of(store).gens is None


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
