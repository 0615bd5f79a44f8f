"""The rows of a category are lists aligned with the morphisms out of each
target (``fincat._Rows``): cell p of row f holds ``out[t(f)][p] o f``, and
a checked table's ``order`` keeps each entry's cell, so that the entries
come back in the order they were given; written rows list theirs row by
row.

Each fill of a ``_Rows`` is recorded, whichever route made it (the rows a
builder hands ``_stored``, a checked constructor, a manifest), and
replayed into the dict layout the rows had before (``dict_fill``: one
dict per row, keyed by g, and the f of each entry): the entries a check
read, or for written rows their entries row by row.  Re-keyed
(``keyed_rows``), the rows equal those dicts, and ``pairs`` and ``table``
give the entries in the order the dict layout gave them.  The rows a total makes on first
read (``hocolim._TotalRows``) are compared with the name walk of
``reference_total_arrays``.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import fincat, groupact, hocolim, manifest, randgen, zoo
from eulcat.fincat import full_subcategory, lower_link, opposite, product, skeleton
from eulcat.groups import cyclic_group, symmetric_group

from helpers import (checked_store, dict_fill, dict_pairs, keyed_rows, reference_total_arrays,
                     split_idempotent)
from strategies import SEEDS, strict_diagrams

# the randgen draws whose categories are compared, and the categories
# derived from each by a builder
DRAWS = {
    "scwol": lambda rng: randgen.random_scwol(rng, max_objects=6),
    "poset": lambda rng: randgen.random_poset(rng, max_objects=5),
    "groupoid": lambda rng: randgen.random_groupoid(rng, 4, 4).category,
    "free_action": lambda rng: randgen.random_free_action(rng).space,
}


class Fills:
    """Every ``_Rows`` filled while it is active, with the entries that
    filled it as (g, f, g o f) by index, in order; for rows a builder
    wrote, ``None`` (``written_entries`` reads them back)."""

    def __init__(self, mp: pytest.MonkeyPatch):
        self.seen: list[tuple[fincat._Rows, list]] = []
        init, check = fincat._Rows.__init__, fincat._Rows.check_entries

        def recorded_init(r, *args):
            init(r, *args)
            if r.rows is not None:
                self.seen.append((r, None))

        def recorded_check(r, entries, name, numbers=False):
            entries = list(entries)
            check(r, entries, name, numbers)
            at = r.index  # a manifest's id may be a JSON number, read as its str
            self.seen.append((r, [(at[str(g)], at[str(f)], at[str(gf)]) if numbers else
                                  (at[g], at[f], at[gf]) for g, f, gf in entries]))

        mp.setattr(fincat._Rows, "__init__", recorded_init)
        mp.setattr(fincat._Rows, "check_entries", recorded_check)


def written_entries(r: fincat._Rows) -> list:
    """The entries of rows a builder wrote, which keep no entry order, so
    are listed row by row."""
    assert r.order is None
    return list(r.entries())


def assert_dict_layout(r: fincat._Rows, entries: list) -> None:
    """The rows ``r`` re-keyed are the dict layout of ``entries`` (or of
    the ``written_entries``), and ``pairs`` and ``table`` give its entries
    in its order."""
    if entries is None:
        entries = written_entries(r)
    rows, order = dict_fill(len(r.names), entries)
    pairs, names = dict_pairs(rows, order), r.names
    assert keyed_rows(r) == rows
    assert list(r.pairs()) == pairs
    assert list(r.table().items()) == [((names[g], names[f]), names[rows[f][g]])
                                       for g, f in pairs]


def recorded(build) -> list[tuple[fincat._Rows, list]]:
    """The fills made by ``build()``."""
    with pytest.MonkeyPatch.context() as mp:
        fills = Fills(mp)
        build()
    return fills.seen


def out_of_position(entries: list, r: fincat._Rows) -> bool:
    """Whether some row of ``r`` was filled by ``entries`` out of the order
    of its cells."""
    last: dict[int, int] = {}
    for g, f, _ in entries:
        if r.pos[g] < last.get(f, -1):
            return True
        last[f] = r.pos[g]
    return False


def builds_from(cat):
    """A builder call on ``cat`` for each builder that writes a store
    (``fincat._stored``) from its rows."""
    apex = "t" if not cat.has_object("t") else "apex"
    half = cat.objects[::2]
    yield lambda: full_subcategory(cat, half)
    yield lambda: skeleton(cat)
    yield lambda: opposite(cat)
    yield lambda: product(cat, zoo.parallel_pair_scwol())
    yield lambda: zoo.cone(cat, apex)
    yield lambda: zoo.inflate(cat, {x: 2 for x in half})
    if fincat._is_scwol(cat):
        for x in cat.objects[:2]:
            yield lambda x=x: lower_link(cat, x)
        yield lambda: randgen.induced_free_action(cyclic_group(2), cat)


class TestSameAsTheDictLayout:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(DRAWS)), SEEDS)
    def test_drawn_categories_and_their_builders(self, kind, seed):
        cat = None

        def draw():
            nonlocal cat
            cat = DRAWS[kind](Random(seed))

        fills = recorded(draw)
        for build in builds_from(cat):
            fills += recorded(build)
        assert fills
        for r, entries in fills:
            assert_dict_layout(r, entries)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(DRAWS)), SEEDS)
    def test_loaded_manifests(self, kind, seed):
        """A manifest lists its entries sorted by name, which fill rows out
        of the order of their cells; shuffled, in yet another order."""
        cat = DRAWS[kind](Random(seed))
        payload = manifest.category_payload(cat)
        fills = recorded(lambda: fincat.validate(payload))
        Random(seed).shuffle(payload["compose"])
        fills += recorded(lambda: fincat.validate(payload))
        for r, entries in fills:
            assert_dict_layout(r, entries)

    @pytest.mark.parametrize("build", [
        lambda: zoo.one_object_category(symmetric_group(3)),
        lambda: zoo.polygon_scwol(5),
        lambda: zoo.contractible_groupoid("xyz"),
        lambda: split_idempotent(),
        lambda: groupact.quotient(randgen.random_free_action(Random(4))),
        lambda: groupact.hocolim_groups(groupact.complex_of_groups(
            randgen.random_free_action(Random(7))).complex),
        lambda: groupact.transport_groupoid(cyclic_group(3), ["a", "b", "c"], {
            g: {x: "abc"[("abc".index(x) + int(g)) % 3] for x in "abc"} for g in "012"}),
    ], ids=["one_object", "polygon", "contractible", "split_idempotent", "quotient",
            "hocolim_groups", "transport"])
    def test_other_builders(self, build):
        fills = recorded(build)
        assert fills
        for r, entries in fills:
            assert_dict_layout(r, entries)

    @settings(max_examples=30, deadline=None)
    @given(strict_diagrams)
    def test_the_rows_a_total_writes(self, d):
        """The rows of a total are filled row by row, each in the order of
        its cells: the dict layout of the name walk, its pairs in that
        order."""
        total = hocolim.grothendieck(d).category
        r, want = total._ends, reference_total_arrays(d)["rows"]
        assert keyed_rows(r) == want
        assert list(r.pairs()) == [(q, f) for f, row in enumerate(want) for q in row]


class TestNonVacuity:
    def test_a_row_filled_out_of_position_keeps_its_entry_order(self):
        """A table whose entries fill each row backwards holds the rows of
        the table filled forwards, and gives its entries back backwards."""
        cat = product(zoo.parallel_pair_scwol(), split_idempotent())
        r = cat._ends
        entries = sorted(r.entries(), key=lambda e: (e[1], -r.pos[e[0]]))
        back = checked_store("back", cat.objects, r.names, r.src, r.tgt, r.ident, entries)
        forth = checked_store("forth", cat.objects, r.names, r.src, r.tgt, r.ident,
                              sorted(entries, key=lambda e: (e[1], r.pos[e[0]])))
        assert out_of_position(entries, back._ends)
        assert back._ends.rows == forth._ends.rows
        assert list(back._ends.entries()) == entries != list(forth._ends.entries())
        assert_dict_layout(back._ends, entries)

    def test_manifests_fill_rows_out_of_position(self):
        cat = product(zoo.parallel_pair_scwol(), split_idempotent())
        (r, entries), = recorded(lambda: fincat.validate(manifest.category_payload(cat)))
        assert out_of_position(entries, r)

    def test_entries_read_in_cell_order_are_caught(self, monkeypatch):
        """``pairs`` that read the cells row by row, not in entry order,
        fail the comparison with the dict layout."""
        cat = product(zoo.parallel_pair_scwol(), split_idempotent())
        (r, entries), = recorded(lambda: fincat.validate(manifest.category_payload(cat)))
        out = r.out()
        monkeypatch.setattr(fincat._Rows, "entries", lambda self: (
            (g, f, gf) for f, row in enumerate(self.rows)
            for g, gf in zip(out[self.tgt[f]], row)))
        with pytest.raises(AssertionError):
            assert_dict_layout(r, entries)
