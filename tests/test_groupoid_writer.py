"""Random groupoids, and their functors and diagrams, are written, not re-checked.

``randgen.groupoid_union`` writes a groupoid's rows itself, one row tuple
per (i, g) shared by every (g; i, j), by index arithmetic;
``random_groupoid_functor`` and ``random_groupoid_diagram``
return their values unchecked, each lawful by the proof in its docstring.
The stores are pinned by sha256 digests: name, objects, identity map,
morphism names, endpoints, identities, rows, inverses and direct
finiteness, the components, and for ``random_groupoid`` the state of the
generator after each draw (so that every later draw of the audit stays
the same).  A written store keeps no entry order, so the digests were
re-recorded without it on the code that still kept one, whose digests
with it were recorded while the stores were still filled entry by entry.
Each store is rebuilt through the checked constructor, and every functor
and diagram the ``audit`` set-up draws through ``CatFunctor.from_arrays``
and ``StrictDiagram`` (``helpers.assert_revalidates``).  Non-vacuity: a
functor with one wrong image passes the drawing and fails the cross-check,
and a writer that swaps two cells fails the digests and the checked
constructor.  These digests are the one pin of ``groupoid_union`` and
``random_groupoid``: the name-level copies they were once compared with
are gone, as ``scripts/mutants.py`` found no mutant that the comparison
killed and these digests did not.
"""

from random import Random

import pytest

from eulcat import fincat, randgen
from eulcat.errors import ValidationError
from eulcat.fincat import CatFunctor, NotAFunctor
from eulcat.groups import _positions
from eulcat.hocolim import StrictDiagram

from helpers import assert_revalidates, digest, load_workloads, store

SEEDS = range(200)
Z1, Z2, Z3, Z4, V4, Z5, Z6, S3 = randgen.group_pool()
PARTS = {
    "Z1 on 1": [(Z1, 1, "a")],
    "Z2 on 3": [(Z2, 3, "b")],
    "Z3 on 2": [(Z3, 2, "c0")],
    "S3 on 3": [(S3, 3, "s")],
    "Z6 on 4": [(Z6, 4, "z")],
    "V4, Z5, S3, Z4, Z1": [(V4, 2, "v0"), (Z5, 1, "v1"), (S3, 2, "v2"), (Z4, 3, "v3"),
                           (Z1, 2, "v4")],
}
RANDOM = {
    "random_groupoid": (),
    "random_groupoid(3, 4, v1)": (3, 4, "v1"),  # as the audit draws a diagram's vertices
    "random_groupoid(6, 6, t)": (6, 6, "t"),
}


def groupoid_store(gpd: randgen.Groupoid) -> tuple:
    """The category's ``store`` and each component's prefix, group and objects."""
    return store(gpd.category), [(c.prefix, c.group.name, c.objects) for c in gpd.components]


def draws(*args) -> list:
    """The store of each seed's draw and the generator's state after it."""
    out = []
    for seed in SEEDS:
        rng = Random(seed)
        out.append((groupoid_store(randgen.random_groupoid(rng, *args)), rng.getstate()))
    return out


DIGESTS = {  # re-recorded at the parent without the entry order (module docstring)
    "Z1 on 1":
        "b192549a42647416807d557f7d339b478a90dc79cfdce84868b7404b8f8af45a",
    "Z2 on 3":
        "098afaabe529f44def49dd2e413e1d14e8c7ee543ae56b64336e5dc95241fc07",
    "Z3 on 2":
        "d719009b6bcb9dffeb8239405f4991e1dceeb372659b7989d5d93e7484f50e48",
    "S3 on 3":
        "83ceb15feefe2d73b216c48aee407c7aa9eff98cd350d726d7ce160193b2a6e2",
    "Z6 on 4":
        "7b7e0bf7426f626303c87cba164be6f46e4344d98df625b3990fa6ad02e56d67",
    "V4, Z5, S3, Z4, Z1":
        "3ea65e8793e1ae692f8104a5bd615b15b0403443b308434283e5d22a8cad77cd",
    "random_groupoid":
        "a2f2232d666b91ce9ac15279b17abcc68c5f2b58c5fc79c025a3633eb71471e3",
    "random_groupoid(3, 4, v1)":
        "dbe2d5d7297de54bedd4068ce875a0e578e4a9eb0e5b81cb3594a914791b1900",
    "random_groupoid(6, 6, t)":
        "7e26f0be1d2a507a08811d4d39a0c77eb293c31b315f914837df05dff28713ef",
}


@pytest.mark.parametrize("case", list(PARTS))
def test_store_is_the_recorded_one(case):
    gpd = randgen.groupoid_union(PARTS[case])
    assert digest(groupoid_store(gpd)) == DIGESTS[case]
    assert_revalidates(gpd.category)


@pytest.mark.parametrize("case", list(RANDOM))
def test_draws_are_the_recorded_ones(case):
    assert digest(draws(*RANDOM[case])) == DIGESTS[case]


@pytest.mark.parametrize("case", list(RANDOM))
def test_draws_revalidate(case):
    for seed in SEEDS:
        assert_revalidates(randgen.random_groupoid(Random(seed), *RANDOM[case]).category)


@pytest.mark.parametrize("case", list(PARTS))
def test_a_row_is_shared_by_every_j(case):
    """The row of (g; i, j) is the row of (g; i, 0), one object: a part of
    n objects on a group of order m holds n m distinct rows."""
    r = randgen.groupoid_union(PARTS[case]).category._ends
    base = 0
    for group, n, _ in PARTS[case]:
        m = group.order
        for i in range(n):
            for j in range(n):
                for g in range(m):
                    assert r.rows[base + (i * n + j) * m + g] is r.rows[base + i * n * m + g]
        base += n * n * m
    assert len(set(map(id, r.rows))) == sum(n * group.order for group, n, _ in PARTS[case])


def test_positions_are_the_ones_found():
    """The positions ``groupoid_union`` hands over, j m + g for (g; i, j),
    are the ones ``groups._positions`` finds from the sources."""
    pinned = [randgen.groupoid_union(parts) for parts in PARTS.values()]
    pinned += [randgen.random_groupoid(Random(seed), *args) for args in RANDOM.values()
               for seed in SEEDS]
    for gpd in pinned:
        r = gpd.category._ends
        assert list(r.pos) == _positions(r.src, len(r.ident))[0]


@pytest.mark.parametrize("seed", [0, 1, 1009])
def test_audit_functors_and_diagrams_revalidate(seed):
    """Every edge of every diagram the ``audit`` set-up draws is accepted by
    ``CatFunctor.from_arrays``, and every diagram by ``StrictDiagram``."""
    diagrams = load_workloads().audit_instances(seed, 40)[0]
    checked = 0
    for d in diagrams:
        for fun in d.edge.values():
            CatFunctor.from_arrays(fun.source, fun.target, *fun._arrays)
            checked += fun.source is not fun.target
        assert_revalidates(d)
    assert checked > 50


@pytest.mark.parametrize("seed", range(20))
def test_a_drawn_diagram_keeps_its_view(seed):
    """A groupoid diagram holds its index view from the draw on, on its own
    edges, as the checked constructor would leave it."""
    d = randgen.random_groupoid_diagram(Random(seed))
    view = vars(d)["_view"]
    assert view.edges == [d.edge[m] for m in d.index.morphism_names()]
    assert view.vertex == [d.vertex[i] for i in d.index.objects]
    checked = StrictDiagram(d.index, d.vertex, d.edge)._view
    assert (view.arrays, view.image, view.vrows) == (checked.arrays, checked.image, checked.vrows)


def test_a_wrong_image_is_caught(monkeypatch):
    """Non-vacuity: a group map with one wrong image, for which no map
    Z3 -> Z3 is a homomorphism, passes the unchecked drawing, and
    ``CatFunctor.from_arrays`` rejects the functor."""
    image_of = randgen._image_of
    monkeypatch.setattr(randgen, "_image_of",
                        lambda hom: [*image_of(hom)[:-1], (image_of(hom)[-1] + 1) % 3])
    src = randgen.groupoid_union([(Z3, 2, "a")])
    tgt = randgen.groupoid_union([(Z3, 1, "b")])
    fun = randgen.random_groupoid_functor(Random(0), src, tgt)
    with pytest.raises(NotAFunctor):
        CatFunctor.from_arrays(fun.source, fun.target, *fun._arrays)


def test_a_swapped_pair_of_cells_is_caught(monkeypatch):
    """Non-vacuity: a writer that swaps the first two cells of the first
    row (in a fresh tuple) gives another store, and the checked constructor
    rejects it."""
    written = fincat._stored

    def swapped(*args, rows=None, **kwargs):
        (a, b, *rest), *others = rows
        return written(*args, rows=[(b, a, *rest), *others], **kwargs)

    monkeypatch.setattr(randgen, "_stored", swapped)
    gpd = randgen.groupoid_union(PARTS["Z3 on 2"])
    assert digest(groupoid_store(gpd)) != DIGESTS["Z3 on 2"]
    with pytest.raises(ValidationError):
        assert_revalidates(gpd.category)
