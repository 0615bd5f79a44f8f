"""A written store lists its entries row by row.

A builder hands ``fincat._stored`` its rows and positions and no entry
order, so ``_Rows.entries`` lists the entries row by row: f in index
order, then the g out of t(f) in index order, each with the cell g o f.
The oracle (``row_by_row``) is written here off the endpoint arrays and
the rows alone.  It is checked on every fixed case of the writer tests
(the zoo, derived, acyclic, groupoid and polygon action writers) and on
every index, vertex and action space the ``audit`` set-up draws at seeds
0 and 1009; the one hand-built category the ``audit`` draws, the circle,
is checked and keeps the order it was given.  Non-vacuity: a store given
a reversed order lists its entries backwards and fails.
"""

import pytest

from eulcat import randgen, zoo

from helpers import load_workloads
from test_acyclic_writer import CASES as ACYCLIC
from test_derived_writers import CASES as DERIVED
from test_group_action_writer import REFLECTIONS, ROTATIONS
from test_groupoid_writer import PARTS
from test_zoo_writers import CASES as ZOO

CASES = {
    **{f"zoo {case}": build for case, build in ZOO.items()},
    **{f"derived {case}": build for case, build in DERIVED.items()},
    **{f"acyclic {case}": build for case, build in ACYCLIC.items()},
    **{f"groupoid {case}": lambda parts=parts: randgen.groupoid_union(parts).category
       for case, parts in PARTS.items()},
    **{f"rotation({sides}, {step})": lambda sides=sides, step=step:
       randgen.rotation_action(sides, step).space for sides, step in ROTATIONS},
    **{f"reflection({sides})": lambda sides=sides: randgen.reflection_action(sides).space
       for sides in REFLECTIONS},
}


def row_by_row(r) -> list:
    """The entries (g, f, g o f) of the rows ``r``: f in index order, then
    the g with source t(f) in index order, cell k of row f holding the
    composite with the k-th of them."""
    mors = range(len(r.src))
    return [(g, f, gf) for f in mors
            for g, gf in zip([g for g in mors if r.src[g] == r.tgt[f]], r.rows[f], strict=True)]


def assert_row_by_row(cat) -> None:
    r = cat._ends
    assert r.order is None
    assert list(r.entries()) == row_by_row(r)


@pytest.mark.parametrize("case", list(CASES))
def test_a_writer_case_lists_row_by_row(case):
    assert_row_by_row(CASES[case]())


def audit_stores(seed: int) -> list:
    """The index and vertices of each diagram and the space of each action
    the ``audit`` set-up draws at ``seed``."""
    diagrams, free, actions = load_workloads().audit_instances(seed, 40)
    return [*(cat for d in diagrams for cat in (d.index, *d.vertex.values())),
            *(a.space for a in (*free, *actions))]


@pytest.mark.parametrize("seed", [0, 1009])
def test_the_audit_stores_list_row_by_row(seed):
    circle, written = zoo.circle_scwol().name, 0
    for cat in audit_stores(seed):
        if cat.name == circle:  # checked: its entries come back in the order given
            assert sorted(cat._ends.order) == list(range(sum(map(len, cat._ends.rows))))
            continue
        assert_row_by_row(cat)
        written += 1
    assert written > 150


def test_a_reversed_order_is_caught():
    """Non-vacuity: the same rows given a reversed order fail the check,
    and list the oracle's entries backwards."""
    cat = ZOO["cone(pushout)"]()
    r = cat._ends
    r.order = tuple(reversed(range(sum(map(len, r.rows)))))
    with pytest.raises(AssertionError):
        assert_row_by_row(cat)
    assert list(r.entries()) == row_by_row(r)[::-1] != row_by_row(r)
