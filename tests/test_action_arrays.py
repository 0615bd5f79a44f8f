"""One action representation: a ``ScwolAction`` keeps the arrays of each
element, and every derived action is r o g o i on arrays.

The name-level route of the action layer (``tests/helpers.py``, from
``NamedAction`` on) is the reference: the quotient, the complex of groups,
the skeletal reduction (report, reduced action, retraction), the
equivariant skeleton and the chi theorems must come out the same, names and
orders included, on drawn actions, the flag actions and every action of the
``audit`` instances.  A derived action composed without r fails the
comparison, or ``skeletal_reduction`` itself.  The ``audit`` free and
reduction tasks make no name view of a functor or an action.
"""

from random import Random

import pytest
from hypothesis import given, settings

from eulcat import groupact, randgen
from eulcat.errors import _trusted
from eulcat.fincat import CatFunctor, _composite_arrays, _rows_of
from eulcat.groupact import ScwolAction, trivial_action
from eulcat.groups import cyclic_group

from helpers import (
    assert_same_table,
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

# the circle action with both swapped objects doubled: the retraction of
# its skeleton does real work
FAT = randgen.inflate_action(randgen.circle_action(), {"x": 2, "x2": 2})


def tables(action) -> list:
    """The name tables of each element, in group and table order."""
    return [(g, list(action.on_objects[g].items()), list(action.on_morphisms[g].items()))
            for g in action.group.labels]


def arrays_of(named) -> list:
    """The arrays of a ``NamedAction``'s tables, on its space's indices."""
    r = _rows_of(named.space)
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
    """A derived action keeps arrays only, and its tables are made on first
    read, in space order; a checked action keeps the tables it was given."""
    red = groupact.skeletal_reduction(FAT).action
    assert "on_objects" not in vars(red) and "on_morphisms" not in vars(red)
    assert list(red.on_objects["0"]) == list(red.space.objects)
    assert "on_objects" in vars(red) and "on_objects" in vars(FAT)
    assert FAT.on_objects == FAT._tables(0) and FAT.on_morphisms == FAT._tables(1)


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
