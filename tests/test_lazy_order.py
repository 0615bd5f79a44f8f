"""The ``audit`` tasks list no written store's entries.

A builder hands ``fincat._stored`` its rows and positions finished and no
entry order: ``_Rows.entries`` (and ``pairs`` and ``table`` through it)
lists a written store row by row, each row in cell order, on every read.
The formula, free and reduction tasks of the ``audit`` read the rows of
the stores they are given, never their entries: a spy on
``_Rows.entries`` records each read of a store with no entry order, over
the tasks of seeds 0 and 1009.  The complexes of groups a reduction builds
list their twists off the quotient's rows, and ``chi_theorems`` builds no
complex.  Non-vacuity: a ``check_hocolim_formula`` that reads its index's
``pairs()`` is seen, and so is a complex that reads its quotient's
entries.
"""

import pytest

from eulcat import fincat, groupact, hocolim, randgen
from eulcat.eulerchar import chi_scwol
from eulcat.fincat import classify
from eulcat.ratlin import chi_L

from helpers import digest, load_workloads, store
from test_acyclic_writer import CASES as ACYCLIC, DIGESTS as ACYCLIC_DIGESTS
from test_groupoid_writer import DIGESTS as GROUPOID_DIGESTS, PARTS, groupoid_store
from test_row_by_row import row_by_row
from test_zoo_writers import CASES as ZOO, DIGESTS as ZOO_DIGESTS


def spy_on_reads(monkeypatch) -> list:
    """The stores with no entry order whose entries are read from now on,
    in the order they are read."""
    reads, real = [], fincat._Rows.entries

    def entries(rows):
        if rows.order is None:
            reads.append(rows)
        return real(rows)

    monkeypatch.setattr(fincat._Rows, "entries", entries)
    return reads


def unordered(diagrams) -> bool:
    """Whether no index or vertex store of ``diagrams`` holds an entry order."""
    return all(cat._ends.order is None for d in diagrams for cat in [d.index, *d.vertex.values()])


def run_formula_tasks(diagrams) -> None:
    """The library calls of each ``audit`` formula task, as the bench makes
    them."""
    workloads = load_workloads()
    for k, d in enumerate(diagrams):
        assert workloads.facts_oracle(workloads._formula_task(f"formula{k}", d).run()) is None


@pytest.mark.parametrize("seed", [0, 1009])
def test_formula_tasks_make_no_order(seed, monkeypatch):
    diagrams = load_workloads().audit_instances(seed, 40)[0]
    reads = spy_on_reads(monkeypatch)
    run_formula_tasks(diagrams)
    assert reads == []
    assert unordered(diagrams)
    assert sum(len(d.vertex) for d in diagrams) > 100


def test_an_order_read_by_the_formula_is_seen(monkeypatch):
    """Non-vacuity: a formula check that reads the pairs of its index is
    seen, once per diagram."""
    check = hocolim.check_hocolim_formula

    def reading(d, *args, **kwargs):
        list(d.index._ends.pairs())
        return check(d, *args, **kwargs)

    monkeypatch.setattr(hocolim, "check_hocolim_formula", reading)
    diagrams = load_workloads().audit_instances(0, 10)[0]
    reads = spy_on_reads(monkeypatch)
    run_formula_tasks(diagrams)
    assert reads == [d.index._ends for d in diagrams]


def run_action_tasks(free, actions) -> None:
    """The library calls of each ``audit`` free and reduction task."""
    workloads = load_workloads()
    outcomes = [workloads._free_task(f"free{k}", a).run() for k, a in enumerate(free)]
    outcomes += [workloads._reduction_task(f"reduction{k}", a).run() for k, a in enumerate(actions)]
    assert all(workloads.facts_oracle(o) is None for o in outcomes)


@pytest.mark.parametrize("seed", [0, 1009])
def test_action_tasks_list_no_entries(seed, monkeypatch):
    _, free, actions = load_workloads().audit_instances(seed, 40)
    assert (len(free), len(actions)) == (10, 10)
    reads = spy_on_reads(monkeypatch)
    run_action_tasks(free, actions)
    assert reads == []


def test_an_order_read_by_a_complex_is_seen(monkeypatch):
    """Non-vacuity: a complex that reads its quotient's entries is seen
    for each of the two quotients of every reduction."""
    real = groupact._complex_from_choices

    def reading(action, q, *choices):
        list(q.category._ends.entries())
        return real(action, q, *choices)

    monkeypatch.setattr(groupact, "_complex_from_choices", reading)
    _, free, actions = load_workloads().audit_instances(0, 40)
    reads = spy_on_reads(monkeypatch)
    run_action_tasks(free, actions)
    assert len(reads) == 2 * len(actions)


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
    """The order a read makes of a store that chi_L and ``classify`` have
    read: the store is the pinned one and keeps no order, and each read
    lists its entries row by row."""
    build, pinned_of, pinned = PINNED[case]
    built = build()
    cat = getattr(built, "category", built)
    chi_L(cat)
    if classify(cat).is_scwol:
        chi_scwol(cat)
    assert digest(pinned_of(built)) == pinned
    r = cat._ends
    assert list(r.entries()) == list(r.entries()) == row_by_row(r)
    assert r.order is None
