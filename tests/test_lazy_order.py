"""A written store makes its entry order on its first read, not before.

A builder hands ``fincat._stored`` its rows and positions finished, and its
entry order as a maker that ``_Rows.order`` runs on the first read and
keeps (``_Rows._order`` holds the maker until then).  The formula tasks of
the ``audit`` read no entry order of a diagram's index or vertices, so
after their library calls on drawn diagrams no index or vertex store holds
a made order; the first read makes the order the writer digests pin.
Non-vacuity: a ``check_hocolim_formula`` that reads its index's entries is
seen.

The free and reduction tasks run no order maker at all: the complexes of
groups a reduction builds list their twists off the quotient's rows, and
``chi_theorems`` builds no complex (before, a seed-1009 pass made 450
orders in its 150 reduction tasks).  A spy on ``_Rows.order`` records each
read that runs a maker; a complex that reads its quotient's entries is
seen.
"""

import pytest

from eulcat import fincat, groupact, hocolim, randgen
from eulcat.eulerchar import chi_scwol
from eulcat.fincat import classify
from eulcat.ratlin import chi_L

from helpers import digest, load_workloads, store
from test_acyclic_writer import CASES as ACYCLIC, DIGESTS as ACYCLIC_DIGESTS
from test_groupoid_writer import DIGESTS as GROUPOID_DIGESTS, PARTS, groupoid_store
from test_zoo_writers import CASES as ZOO, DIGESTS as ZOO_DIGESTS


def made(diagrams) -> list[str]:
    """The index and vertex stores of ``diagrams`` whose order is made."""
    return [cat.name for d in diagrams for cat in [d.index, *d.vertex.values()]
            if not callable(cat._ends._order)]


def run_formula_tasks(diagrams) -> None:
    """The library calls of each ``audit`` formula task, as the bench makes
    them."""
    workloads = load_workloads()
    for k, d in enumerate(diagrams):
        assert workloads.facts_oracle(workloads._formula_task(f"formula{k}", d).run()) is None


@pytest.mark.parametrize("seed", [0, 1009])
def test_formula_tasks_make_no_order(seed):
    diagrams = load_workloads().audit_instances(seed, 40)[0]
    assert made(diagrams) == []
    run_formula_tasks(diagrams)
    assert made(diagrams) == []
    assert sum(len(d.vertex) for d in diagrams) > 100


def test_an_order_read_by_the_formula_is_seen(monkeypatch):
    """Non-vacuity: a formula check that reads the entries of its index
    leaves made orders behind."""
    check = hocolim.check_hocolim_formula

    def reading(d, *args, **kwargs):
        list(d.index._ends.entries())
        return check(d, *args, **kwargs)

    monkeypatch.setattr(hocolim, "check_hocolim_formula", reading)
    diagrams = load_workloads().audit_instances(0, 10)[0]
    run_formula_tasks(diagrams)
    assert made(diagrams) == [d.index.name for d in diagrams]


def spy_on_makers(monkeypatch) -> list:
    """The stores whose order maker a read of ``_Rows.order`` runs, from
    now on, in the order they run."""
    runs, real = [], fincat._Rows.order.fget

    def order(rows):
        if callable(rows._order):
            runs.append(rows)
        return real(rows)

    monkeypatch.setattr(fincat._Rows, "order", property(order))
    return runs


def run_action_tasks(free, actions) -> None:
    """The library calls of each ``audit`` free and reduction task."""
    workloads = load_workloads()
    outcomes = [workloads._free_task(f"free{k}", a).run() for k, a in enumerate(free)]
    outcomes += [workloads._reduction_task(f"reduction{k}", a).run() for k, a in enumerate(actions)]
    assert all(workloads.facts_oracle(o) is None for o in outcomes)


@pytest.mark.parametrize("seed", [0, 1009])
def test_action_tasks_run_no_order_maker(seed, monkeypatch):
    _, free, actions = load_workloads().audit_instances(seed, 40)
    assert (len(free), len(actions)) == (10, 10)
    runs = spy_on_makers(monkeypatch)
    run_action_tasks(free, actions)
    assert runs == []


def test_an_order_read_by_a_complex_is_seen(monkeypatch):
    """Non-vacuity: a complex that reads its quotient's entries makes the
    order of each of the two quotients of every reduction."""
    real = groupact._complex_from_choices

    def reading(action, q, *choices):
        list(q.category._ends.entries())
        return real(action, q, *choices)

    monkeypatch.setattr(groupact, "_complex_from_choices", reading)
    _, free, actions = load_workloads().audit_instances(0, 40)
    runs = spy_on_makers(monkeypatch)
    run_action_tasks(free, actions)
    assert len(runs) == 2 * len(actions)


PINNED = {  # a builder, the pinned value of what it built, and that value's digest
    **{f"acyclic {case}": (ACYCLIC[case], store, ACYCLIC_DIGESTS[case])
       for case in ["subsets_op(3)", "polygon(8)", "discrete(abc)"]},
    **{f"zoo {case}": (ZOO[case], store, ZOO_DIGESTS[case])
       for case in ["cone(cone(circle), s)", "inflate(cone(polygon(3)))", "BS3"]},
    **{f"groupoid {case}": (lambda case=case: randgen.groupoid_union(PARTS[case]),
                            groupoid_store, GROUPOID_DIGESTS[case])
       for case in ["S3 on 3", "Z6 on 4"]},
}


@pytest.mark.parametrize("case", list(PINNED))
def test_a_made_order_is_the_pinned_one(case):
    """A store that chi_L and ``classify`` have read has no order yet; its
    first read makes the pinned one, kept for every later read."""
    build, pinned_of, pinned = PINNED[case]
    built = build()
    cat = getattr(built, "category", built)
    chi_L(cat)
    if classify(cat).is_scwol:
        chi_scwol(cat)
    assert callable(cat._ends._order)
    assert digest(pinned_of(built)) == pinned
    order = cat._ends._order
    assert isinstance(order, tuple) and cat._ends.order is order
