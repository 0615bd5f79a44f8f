"""One action representation: a ``ScwolAction`` keeps the arrays of each
element, and every derived action is r o g o i on arrays.

The name-level route of the action layer (``tests/helpers.py``, from
``NamedAction`` on) is the reference: the quotient, the complex of groups,
the skeletal reduction (report, reduced action, retraction), the
equivariant skeleton and the chi theorems must come out the same, names and
orders included, on drawn actions, the flag actions and every action of the
``audit`` instances.  ``chi_theorems`` builds no complex of groups: it
reads the quotient and the number of fixers of each orbit's name.  A derived action composed without r fails the
comparison, or ``skeletal_reduction`` itself.  The ``audit`` free and
reduction tasks make no name view of a functor or an action.

The lifts of an action along the cone and the inflation, and the induced
free action, are written on arrays too.  Their one pin is in
``tests/test_derived_writers.py``: the digest of the arrays they write on
fixed and drawn actions (``LIFT_DIGEST``), which an inflation lift that
drops the copy offset fails.  An induced action of a base that is no scwol
is rejected with the message and witness the checked constructor gave.
The ``audit`` and ``groups`` set-ups make no view of a category or an
action.
"""

from random import Random

import pytest
from hypothesis import given, settings

from eulcat import groupact, randgen, zoo
from eulcat.errors import _trusted
from eulcat.fincat import CatFunctor, FinCat, NotScwol, _composite_arrays
from eulcat.groupact import ScwolAction, trivial_action
from eulcat.groups import FinGroup, cyclic_group

from helpers import (
    assert_same_table,
    digest,
    inflate_action_without_offset,
    load_workloads,
    named_action,
    reference_chi_theorems,
    reference_complex,
    reference_equivariant_skeleton,
    reference_quotient_result,
    reference_skeletal_reduction,
    s3_flag_action,
)
from strategies import SEEDS, flag_actions
from test_derived_writers import LIFT_DIGEST, lifted_actions

# the circle action with both swapped objects doubled: the retraction of
# its skeleton does real work
FAT = randgen.inflate_action(randgen.circle_action(), {"x": 2, "x2": 2})


def tables(action) -> list:
    """The name tables of each element, in group and table order."""
    return [(g, list(action.on_objects[g].items()), list(action.on_morphisms[g].items()))
            for g in action.group.labels]


def arrays_of(named) -> list:
    """The arrays of a ``NamedAction``'s tables, on its space's indices."""
    r = named.space._ends
    return [([r.objects[named.on_objects[g][x]] for x in named.space.objects],
             [r.index[named.on_morphisms[g][m]] for m in r.names]) for g in named.group.labels]


def complex_fields(cplx, reps, lifts, h_elements) -> tuple:
    """A complex of groups and its choices, names and orders included."""
    return ([(x, g.name, g.labels, g.table) for x, g in cplx.local.items()],
            [(m, h.source.name, h.target.name, list(h.mapping.items()))
             for m, h in cplx.homs.items()],
            list(cplx.twists.items()), list(reps.items()), list(lifts.items()),
            list(h_elements.items()))


def same(what: str, got, want) -> None:
    if got != want:
        raise AssertionError(f"{what} differ: {got!r} != {want!r}")


def assert_same_route(action, h_elements=None) -> None:
    """The array route on ``action`` gives what the name-level route gives;
    ``h_elements`` override the complex's defaults."""
    named = named_action(action)
    assert_same_skeleton(action, named)

    q, want_q = groupact.quotient(action), reference_quotient_result(named)
    assert_same_table(q.category, want_q[0])
    same("orbit maps", (list(q.object_orbit_of.items()), list(q.morphism_orbit_of.items())),
         (list(want_q[1].items()), list(want_q[2].items())))

    built = groupact.complex_of_groups(action, h_elements=h_elements)
    to = built.to_group
    same("complexes of groups", complex_fields(built.complex, to.representatives, to.lifts,
                                               to.h_elements),
         complex_fields(*reference_complex(named, want_q, h_elements=h_elements)))

    red = groupact.skeletal_reduction(action)
    reduced, r, incl, report = reference_skeletal_reduction(named)
    same("reduction reports", red.report, report)
    assert_same_table(red.action.space, reduced.space)
    same("reduced actions", red.action._arrays, arrays_of(reduced))
    same("reduced tables", tables(red.action), tables(reduced))
    same("retractions", red.retraction._arrays, r._arrays)
    same("inclusions", red.inclusion._arrays, incl._arrays)

    same("chi theorem reports", groupact.chi_theorems(action), reference_chi_theorems(named))


def assert_same_skeleton(action, named) -> None:
    """``equivariant_skeleton`` on ``action`` and on its tables ``named``."""
    esk = groupact.equivariant_skeleton(action)
    restricted, incl, r, eta, incl_eq, eta_eq = reference_equivariant_skeleton(named)
    assert_same_table(esk.action.space, restricted.space)
    same("restricted actions", esk.action._arrays, arrays_of(restricted))
    same("restricted tables", tables(esk.action), tables(restricted))
    same("skeleton functors", (esk.inclusion._arrays, esk.retraction._arrays),
         (incl._arrays, r._arrays))
    same("eta", list(esk.eta.items()), list(eta.items()))
    same("equivariance flags", (esk.inclusion_equivariant, esk.eta_equivariant), (incl_eq, eta_eq))


class TestSameAsTheNameRoute:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS)
    def test_drawn_actions(self, seed):
        assert_same_route(randgen.random_action(Random(seed)))

    @settings(max_examples=10, deadline=None)
    @given(flag_actions())
    def test_flag_actions(self, drawn):
        assert_same_route(*drawn)

    def test_s3_flag_action(self):
        assert_same_route(*s3_flag_action())
        assert_same_route(s3_flag_action()[0])

    @pytest.mark.parametrize("seed", [0, 1, 1009])
    def test_audit_actions(self, seed):
        _, free, actions = load_workloads().audit_instances(seed, 40)
        assert len(free) + len(actions) == 20
        for action in free + actions:
            assert_same_route(action)

    def test_fattened_actions(self):
        assert_same_route(FAT)
        assert_same_route(trivial_action(cyclic_group(3), randgen.random_scwol(Random(4), 5)))


def spy_on_complexes(monkeypatch) -> list:
    """Each call of ``groupact._complex_from_choices`` and of
    ``FinGroup.subgroup`` (a local group) from now on, by name."""
    calls = []
    for owner, name in ((groupact, "_complex_from_choices"), (FinGroup, "subgroup")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _real=real, _name=name, **kwargs:
                            calls.append(_name) or _real(*args, **kwargs))
    return calls


def theorem_actions() -> list:
    """Drawn actions, the flag and fattened actions, and the actions of the
    ``audit`` instances at seeds 0 and 1009."""
    audit = [a for seed in (0, 1009) for part in load_workloads().audit_instances(seed, 40)[1:]
             for a in part]
    return [randgen.random_action(Random(seed)) for seed in range(30)] + [
        s3_flag_action()[0], FAT] + audit


def test_chi_theorems_build_no_complex(monkeypatch):
    actions = theorem_actions()
    want = [reference_chi_theorems(named_action(action)) for action in actions]
    calls = spy_on_complexes(monkeypatch)
    got = [groupact.chi_theorems(action) for action in actions]
    assert calls == []
    same("chi theorem reports", got, want)


def test_a_complex_built_by_chi_theorems_is_seen(monkeypatch):
    """Non-vacuity: a ``complex_of_groups`` call inside ``chi_theorems`` is
    seen, with one local group per orbit."""
    real = groupact.chi_theorems
    monkeypatch.setattr(groupact, "chi_theorems",
                        lambda action: groupact.complex_of_groups(action) and real(action))
    calls = spy_on_complexes(monkeypatch)
    groupact.chi_theorems(FAT)
    assert calls == ["_complex_from_choices"] + ["subgroup"] * len(groupact.quotient(FAT).category)


def without_r(action, sk):
    """The reduced action composed as g o i, without the retraction."""
    i = sk.inclusion._arrays
    return _trusted(ScwolAction, group=action.group, space=sk.category,
                    _arrays=[_composite_arrays(i, a) for a in action._arrays])


def test_a_derived_action_without_r_fails_the_comparison(monkeypatch):
    """Non-vacuity: composing each element without r is seen.  The
    restricted action's arrays then hold indices of the space, not of the
    skeleton, and differ from the reference's; the reduced action's index
    the skeleton out of range, so ``skeletal_reduction`` fails on its own
    quotient."""
    assert_same_route(FAT)
    monkeypatch.setattr(groupact, "_conjugated", without_r)
    with pytest.raises(AssertionError, match="restricted actions differ"):
        assert_same_skeleton(FAT, named_action(FAT))
    with pytest.raises(IndexError):
        groupact.skeletal_reduction(FAT)


def test_derived_tables_are_views():
    """A derived action (a reduced action, a lift) keeps arrays only, and
    its tables are made on first read, in space order; a checked action
    keeps the tables it was given."""
    lifted = randgen.inflate_action(randgen.circle_action(), {"x": 2, "x2": 2})
    for derived in (groupact.skeletal_reduction(FAT).action, lifted):
        assert "on_objects" not in vars(derived) and "on_morphisms" not in vars(derived)
        assert list(derived.on_objects["0"]) == list(derived.space.objects)
        assert "on_objects" in vars(derived)
    circle = randgen.circle_action()
    assert "on_objects" in vars(circle) and "on_morphisms" in vars(circle)
    assert circle.on_objects == circle._tables(0) and circle.on_morphisms == circle._tables(1)


def test_audit_tasks_make_no_views(monkeypatch):
    """The ``audit`` free and reduction tasks at seed 0 read no name view of
    a functor or an action (before actions kept their arrays, the reduction
    tasks made 900 functor views)."""
    workloads = load_workloads()
    _, free, actions = workloads.audit_instances(0, 1500)
    assert (len(free), len(actions)) == (375, 150)
    made = []
    for cls in (CatFunctor, ScwolAction):
        real = cls._make
        monkeypatch.setattr(cls, "_make", lambda self, attr, real=real: made.append(attr)
                            or real(self, attr))
    outcomes = [workloads._free_task(f"audit/free{k}", action).run()
                for k, action in enumerate(free)]
    outcomes += [workloads._reduction_task(f"audit/reduction{k}", action).run()
                 for k, action in enumerate(actions)]
    assert all(all(o.facts.values()) for o in outcomes)
    assert made == []
    # the spy sees a view where one is made
    groupact.skeletal_reduction(actions[0]).action.on_objects
    assert made == ["on_objects"]


class TestLiftsOnArrays:
    def test_a_base_that_is_no_scwol(self):
        """The induced action of a base with a non-identity endomorphism is
        rejected as the checked constructor rejected it: the class, message
        and witness it raised."""
        base = zoo.one_object_category(cyclic_group(2))
        with pytest.raises(NotScwol) as got:
            randgen.induced_free_action(cyclic_group(3), base)
        assert str(got.value) == "Z3xBZ2 has a non-identity endomorphism"
        assert got.value.witness == {"morphism": "0*1"}


def test_a_lift_without_the_copy_offset_fails_the_comparison(monkeypatch):
    """Non-vacuity of the lifts' pin (``test_derived_writers.LIFT_DIGEST``):
    dropping the copy offset gives other arrays than the recorded ones."""
    assert digest(lifted_actions()) == LIFT_DIGEST
    monkeypatch.setattr(randgen, "inflate_action", inflate_action_without_offset)
    assert digest(lifted_actions()) != LIFT_DIGEST


def test_set_ups_make_no_views(monkeypatch, tmp_path):
    """The ``audit`` set-up at seed 0 and the ``groups`` set-up make no view
    of a category or an action: the cones, inflations and lifts are written
    off arrays (before, they made 181 category and 36 action views, and
    22 category views)."""
    workloads = load_workloads()
    made = []
    for cls in (FinCat, ScwolAction):
        real = cls._make
        monkeypatch.setattr(cls, "_make", lambda self, attr, real=real: made.append(attr)
                            or real(self, attr))
    workloads.audit_instances(0, 1500)
    workloads.groups_setup(0, str(tmp_path))
    assert made == []
    # the spy sees a view where one is made
    zoo.cone(zoo.pushout_scwol()).morphisms
    assert made == ["morphisms"]


def test_quotient_orbit_maps_are_views():
    """``quotient`` keeps its projection as arrays; each orbit map is made
    on its first read, orbit by orbit, each orbit in name order."""
    q = groupact.quotient(FAT)
    assert not {"object_orbit_of", "morphism_orbit_of"} & vars(q).keys()
    assert list(q.object_orbit_of.items()) == [
        ("x2~0", "x2~0"), ("x~0", "x2~0"), ("x2~1", "x2~1"), ("x~1", "x2~1"),
        ("y~0", "y~0"), ("z~0", "z~0")]
    assert q.object_orbit_of is q.object_orbit_of
    assert "morphism_orbit_of" not in vars(q)
