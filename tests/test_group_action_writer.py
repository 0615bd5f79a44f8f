"""Cyclic groups, polygon rotations and reflections, and random inclusion
diagrams are written, not re-checked.

``groups.cyclic_group`` writes Z/n's table, identity, inverses and
generating set by index arithmetic; ``randgen.rotation_action`` and
``reflection_action`` write each element's arrays on the layout of
``zoo.polygon_scwol``; ``randgen.random_inclusion_diagram`` writes its edges
and its diagram unchecked and keeps its index view.  Each is lawful by the
proof in its docstring.  The cyclic groups are compared field by field with
the checked ``FinGroup.from_mul`` route.  The actions and the diagrams are
pinned by sha256 digests recorded while they still went through the
checked ``ScwolAction`` and ``set_diagram`` (an action's tables by their
items, since a written action's tables are views in space order), and the
diagrams with the state of the generator after each draw (so that every
later draw of the audit stays the same); a written store keeps no entry
order, so they were re-recorded without it on the code that still kept
one, whose digests with it matched those.  Each is rebuilt through the
checked constructors (``helpers.assert_revalidates``), every edge also by
``CatFunctor.from_arrays``.  Non-vacuity: a rotation that sends s_i to
t_(i+k) passes the writer and fails the digests and the checked
constructor.
"""

from random import Random

import pytest

from eulcat import randgen
from eulcat.fincat import CatFunctor
from eulcat.groupact import NotAFunctorAction
from eulcat.groups import FinGroup, NotAGroup, cyclic_group
from eulcat.hocolim import StrictDiagram

from helpers import assert_revalidates, digest, store

SEEDS = range(200)
ROTATIONS = [(sides, step) for sides in (2, 3, 4, 5, 6)  # as ``random_free_action`` draws them
             for step in range(1, sides) if sides % step == 0]
REFLECTIONS = (2, 4, 6)  # as ``random_action`` draws them
RANDOM = {
    "random_inclusion_diagram": (),
    "random_inclusion_diagram(3, 6)": (3, 6),
}


def group_fields(group: FinGroup) -> tuple:
    return (group.labels, group.table, group.name, group._index, group._identity, group._inverse,
            group._gens)


def action_store(action) -> tuple:
    """The group's fields, the space's ``store``, the arrays of each element
    and the items of its tables."""
    return (group_fields(action.group), store(action.space),
            [(list(fo), list(fm)) for fo, fm in action._arrays],
            [(g, sorted(action.on_objects[g].items()), sorted(action.on_morphisms[g].items()))
             for g in action.group.labels])


def diagram_store(d) -> tuple:
    """The index's and each vertex's ``store``, and each edge's name, ends and arrays."""
    return (store(d.index), [(i, store(cat)) for i, cat in d.vertex.items()],
            [(m, f.source.name, f.target.name, list(f._arrays[0]), list(f._arrays[1]))
             for m, f in d.edge.items()])


def draws(*args) -> list:
    """The store of each seed's draw and the generator's state after it."""
    out = []
    for seed in SEEDS:
        rng = Random(seed)
        out.append((diagram_store(randgen.random_inclusion_diagram(rng, *args)), rng.getstate()))
    return out


DIGESTS = {  # re-recorded at the parent without the store's entry order (module docstring)
    "rotations":
        "65f85f3c016c93f699417fc0e4468801c834adc2d68cbb99b1923052b5ebfa76",
    "reflections":
        "6444ad2deb478dc993b11807f5af9126fa28b9f3836a338e7de035523848e5bd",
    "random_inclusion_diagram":
        "7bd4bc66ffa32679c2218171bec7444b8cd614241592e60e9c186e8dd8d20ed4",
    "random_inclusion_diagram(3, 6)":
        "39cc03bf21ea253d7c4b93a11ec3d9a1b02a8b49158cf7d06d3596f375893ac7",
}


def test_cyclic_groups_are_the_checked_ones():
    for n in range(1, 65):
        checked = FinGroup.from_mul(tuple(map(str, range(n))),
                                    lambda a, b: str((int(a) + int(b)) % n), name=f"Z{n}")
        assert group_fields(cyclic_group(n)) == group_fields(checked)


@pytest.mark.parametrize("n", [0, -3])
def test_no_cyclic_group_of_order_below_one(n):
    with pytest.raises(NotAGroup) as info:
        cyclic_group(n)
    assert str(info.value) == f"Z{n} has no identity element"
    assert info.value.witness == {"group": f"Z{n}"}


def test_rotations_are_the_recorded_ones():
    actions = [randgen.rotation_action(sides, step) for sides, step in ROTATIONS]
    assert digest([action_store(a) for a in actions]) == DIGESTS["rotations"]
    for action in actions:
        assert_revalidates(action.group, action)


def test_reflections_are_the_recorded_ones():
    actions = [randgen.reflection_action(sides) for sides in REFLECTIONS]
    assert digest([action_store(a) for a in actions]) == DIGESTS["reflections"]
    for action in actions:
        assert_revalidates(action.group, action)


def test_polygon_tables_are_views():
    """A rotation keeps its arrays only, and its tables are made on first
    read, in space order."""
    action = randgen.rotation_action(6, 2)
    assert "on_objects" not in vars(action) and "on_morphisms" not in vars(action)
    assert list(action.on_morphisms["1"]) == list(action.space.morphism_names())
    assert action.on_objects["1"]["v0"] == "v2" and action.on_morphisms["2"]["t5"] == "t3"


@pytest.mark.parametrize("case", list(RANDOM))
def test_inclusion_draws_are_the_recorded_ones(case):
    assert digest(draws(*RANDOM[case])) == DIGESTS[case]


@pytest.mark.parametrize("case", list(RANDOM))
def test_inclusion_draws_revalidate(case):
    """Every edge is accepted by ``CatFunctor.from_arrays`` and every
    diagram by ``StrictDiagram``, and each keeps the index view the check
    would leave."""
    for seed in SEEDS:
        d = randgen.random_inclusion_diagram(Random(seed), *RANDOM[case])
        for fun in d.edge.values():
            CatFunctor.from_arrays(fun.source, fun.target, *fun._arrays)
        assert_revalidates(d)
        view, checked = vars(d)["_view"], StrictDiagram(d.index, d.vertex, d.edge)._view
        assert view.edges == [d.edge[m] for m in d.index.morphism_names()]
        assert (view.arrays, view.image, view.vrows) == (checked.arrays, checked.image,
                                                         checked.vrows)


def test_a_rotation_that_swaps_ends_is_caught(monkeypatch):
    """Non-vacuity: each non-identity rotation sends s_i to t_(i+k) and t_i
    to s_(i+k); the writer takes it, the digest differs and the checked
    constructor rejects it."""
    arrays = randgen._polygon_arrays
    monkeypatch.setattr(randgen, "_polygon_arrays", lambda n, vs, es, swap: arrays(
        n, vs, es, swap != (vs[0] != 0)))
    actions = [randgen.rotation_action(sides, step) for sides, step in ROTATIONS]
    assert digest([action_store(a) for a in actions]) != DIGESTS["rotations"]
    with pytest.raises(NotAFunctorAction, match="breaks"):
        assert_revalidates(randgen.rotation_action(4))
