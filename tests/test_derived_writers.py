"""The derived categories are written off their input's rows, not re-checked.

``fincat.full_subcategory``, ``lower_link``, ``opposite`` and ``product``,
``groupact.quotient``, ``hocolim_groups`` and ``_transport_groupoid``, and
the space of ``randgen.induced_free_action`` write their stores unchecked
through ``fincat._stored``, each lawful by the proof in its docstring.
Their stores are pinned by sha256 digests (``helpers.store``: name,
objects, identity map, morphism names, endpoints, identities, rows, entry
order, inverses and direct finiteness) recorded while every writer still
scattered entries into rows, on fixed inputs and on seeded draws; the free
actions ``random_free_action`` draws are pinned with their group, their
arrays and the state of the generator after each draw.  Each store is
rebuilt through the checked constructor (``helpers.assert_revalidates``),
and its positions are the ones ``groups._positions`` finds.  Non-vacuity: a
writer that swaps two cells of a row fails both.
"""

from random import Random

import pytest

from eulcat import fincat, groupact, randgen, zoo
from eulcat.errors import ValidationError
from eulcat.groups import _positions, symmetric_group

from helpers import assert_revalidates, digest, split_idempotent, store

Z1, Z2, Z3, Z4, V4, Z5, Z6, S3 = randgen.group_pool()
SEEDS = range(60)


def gpd():
    return randgen.groupoid_union([(S3, 3, "s"), (Z2, 2, "b")]).category


def actions():
    """Fixed actions: free, reflecting, fixing a point, coned and inflated."""
    return {
        "rotation(6, 2)": randgen.rotation_action(6, 2),
        "reflection(4)": randgen.reflection_action(4),
        "circle": randgen.circle_action(),
        "S3 x polygon(3)": randgen.induced_free_action(S3, zoo.polygon_scwol(3)),
        "cone(rotation(4))": randgen.cone_action(randgen.rotation_action(4)),
        "inflate(reflection(4))": randgen.inflate_action(
            randgen.reflection_action(4), {"v0": 2, "e0": 2, "e3": 2}),
        "trivial(Z3, pushout)": groupact.trivial_action(Z3, zoo.pushout_scwol()),
    }


def transport(group, members, max_orbits=None, seed=None):
    if seed is None:
        elements, act = randgen.coset_gset(group, members, "c")
    else:
        elements, act = randgen.random_gset(Random(seed), group, max_orbits)
    return groupact.transport_groupoid(group, elements, act)


CASES = {
    "full(subsets_op(2))": lambda: fincat.full_subcategory(
        zoo.subsets_poset_opposite(2), ["{0,1,2}", "{0,2}", "{2}", "{1}"]),
    "full(cone(BS3))": lambda: fincat.full_subcategory(
        zoo.cone(zoo.one_object_category(S3)), ["t", "*"], name="kept"),
    "full(gpd)": lambda: fincat.full_subcategory(gpd(), ["s.0", "s.2", "b.1"]),
    "full(E(abcd))": lambda: fincat.full_subcategory(zoo.contractible_groupoid("abcd"), "dab"),
    "full(split)": lambda: fincat.full_subcategory(split_idempotent(), ["x"]),
    "Lk(polygon(4), e0)": lambda: fincat.lower_link(zoo.polygon_scwol(4), "e0"),
    "Lk(cone(polygon(3)), e1)": lambda: fincat.lower_link(zoo.cone(zoo.polygon_scwol(3)), "e1"),
    "Lk(subsets_op(3), top)": lambda: fincat.lower_link(zoo.subsets_poset_opposite(3),
                                                        "{0,1,2,3}"),
    "Lk(inflate(cone))": lambda: fincat.lower_link(
        zoo.inflate(zoo.cone(zoo.polygon_scwol(3)), {"e1": 2, "t": 2}), "e1~1"),
    "op(BS3)": lambda: fincat.opposite(zoo.one_object_category(S3)),
    "op(subsets_op(2))": lambda: fincat.opposite(zoo.subsets_poset_opposite(2)),
    "op(gpd)": lambda: fincat.opposite(gpd()),
    "op(cone(E(abc)))": lambda: fincat.opposite(zoo.cone(zoo.contractible_groupoid("abc"))),
    "op(split)": lambda: fincat.opposite(split_idempotent()),
    "BZ3 x pushout": lambda: fincat.product(zoo.one_object_category(Z3), zoo.pushout_scwol()),
    "polygon(3) x gpd(Z2)": lambda: fincat.product(
        zoo.polygon_scwol(3), randgen.groupoid_union([(Z2, 2, "b")]).category),
    "E(ab) x BS3": lambda: fincat.product(zoo.contractible_groupoid("ab"),
                                          zoo.one_object_category(S3)),
    "split x arrow": lambda: fincat.product(split_idempotent(), zoo.arrow_category()),
    **{f"quotient({k})": lambda k=k: groupact.quotient(actions()[k]).category
       for k in actions()},
    **{f"hocolim_groups({k})": lambda k=k: groupact.hocolim_groups(
        groupact.complex_of_groups(actions()[k]).complex) for k in actions()},
    "transport(S3/Z2)": lambda: transport(S3, ["012", "021"]),
    "transport(S3/S3)": lambda: transport(S3, S3.labels),
    "transport(V4, seed 3)": lambda: transport(V4, None, 3, 3),
    "transport(S4, seed 5)": lambda: transport(symmetric_group(4), None, 2, 5),
    "Z6 x polygon(3)": lambda: randgen.induced_free_action(Z6, zoo.polygon_scwol(3)).space,
    "V4 x cone(pushout)": lambda: randgen.induced_free_action(
        V4, zoo.cone(zoo.pushout_scwol())).space,
    "Z5 x subsets_op(1)": lambda: randgen.induced_free_action(
        Z5, zoo.subsets_poset_opposite(1)).space,
}


def derived(space) -> list:
    """Every derived store of a space: a full subcategory on its even
    objects, its opposite, its product with the arrow, and the lower link
    of each object."""
    return [fincat.full_subcategory(space, space.objects[::2]), fincat.opposite(space),
            fincat.product(space, zoo.arrow_category()),
            *(fincat.lower_link(space, x) for x in space.objects)]


def drawn_actions() -> list:
    """Per seed: a drawn action's quotient, its hocolim of groups and its
    space's derived stores."""
    out = []
    for seed in SEEDS:
        act = randgen.random_action(Random(seed))
        out.append([groupact.quotient(act).category,
                    groupact.hocolim_groups(groupact.complex_of_groups(act).complex),
                    *derived(act.space)])
    return out


def drawn_gsets() -> list:
    return [[transport(g, None, 3, seed)] for seed in SEEDS for g in (Z4, V4, S3)]


RANDOM = {"random actions": drawn_actions, "random G-sets": drawn_gsets}
DIGESTS = {  # recorded at the parent, where every store went through ``_Rows._fill``
    "full(subsets_op(2))":
        "5845a698c3412dfc39ec6fb55b2a4cd5fd0968bd4f8ff7362bad48345108e294",
    "full(cone(BS3))":
        "151cb97d3bdb38e2d12f436a424bc1e8a1e944f53036f799b00119430eec7fc6",
    "full(gpd)":
        "4a6143b837d7574464b35afbbd4a52e772710df22ac5816558d3372ba872e5b6",
    "full(E(abcd))":
        "ae501ffad59ba5ab1d187a6faf34f76187a57de3b8e655d2d523f24daf2b1a02",
    "full(split)":
        "f3ba5c164710664a44047efab979ca878aec12595c4425fd9ab3f2aecfa41cb8",
    "Lk(polygon(4), e0)":
        "8609d88943871ad4cecae6d81dd492c721c0f5bbb2393ca0378725978444a355",
    "Lk(cone(polygon(3)), e1)":
        "3dbb54bd9e08ab9d25691c91142bb2b33d38824dc250d0586687625caf8362c6",
    "Lk(subsets_op(3), top)":
        "6b8b13ce64b1edd408d5de6e3f53db0e26ab7ed65f620513074d627383b691e3",
    "Lk(inflate(cone))":
        "0aaedef8d1dd37b7fb3f197e0cf1b093ad29d4a2192782a28da0c3686f2d4dae",
    "op(BS3)":
        "f5e4f782c3d7b63bb286dcbf1ebeefad1bb619709d836127b92242698368bd1a",
    "op(subsets_op(2))":
        "bd08b08bdd2575fdbd040f092a505af67e901aac55be53d847202467bb83a801",
    "op(gpd)":
        "a0348f00a810cb8ccc03bb2bd8d6a7a6a7029e650d7b156082607ddc512d34b6",
    "op(cone(E(abc)))":
        "8107a13c6bef94bc0d002b1e9974a02414440764204a8779574c776cbae7107d",
    "op(split)":
        "065d43f7509f30faed07039ba0d1aa192f4254f0e7d0945135a5598696bdb4cf",
    "BZ3 x pushout":
        "5e411455106db58a6cb2937e8df2c43a08a83307902d5743b225c67a2d3fa008",
    "polygon(3) x gpd(Z2)":
        "4204e0838d03d9ff8e1b276aaa2c5880db1ef6197a698bd22836d0fe730fdaea",
    "E(ab) x BS3":
        "9e0e90394e935566970ba4605bb4aa9f3561fce70866a444d8f32c4821a771a6",
    "split x arrow":
        "a7afd4dbc417d13fe3f92a201c7402b4f8b9a5e4704f007e749bc67ffab59efc",
    "quotient(rotation(6, 2))":
        "54a95dafd57b47c069211a62fbb5d390ed20747bc8369b3b426f89f348973d2f",
    "quotient(reflection(4))":
        "289fcf4c71b8e730394d6a67d756a24ada7aa4fcbdfe0f51be6b98ffda2e8f2c",
    "quotient(circle)":
        "3b703d623d590f059c8d0cfa9757d27035f3a4840f084f5735146fd74351db63",
    "quotient(S3 x polygon(3))":
        "2c8719cdc7e75bc063c44671d47e5a3fe3154b4fc1e0f0aae5b4cf44e1bf86a2",
    "quotient(cone(rotation(4)))":
        "aff3b96c19a1962a1a2d28ab5da5b3c6e0c9e7fb1c89bf500662bcf7015e0919",
    "quotient(inflate(reflection(4)))":
        "2a254a346a59b5e77a3c5e3ab528784e6ee4e6ca41bebcb8d71260a6817638e0",
    "quotient(trivial(Z3, pushout))":
        "671c246b86864e29565aed4deb595228aa65cc9971bed12560ee249fce16f432",
    "hocolim_groups(rotation(6, 2))":
        "bc87d04583c9c57979bbf2707665091d47ab61c518acad020e961779e3e8f9ef",
    "hocolim_groups(reflection(4))":
        "cd310cbec840cac81eb81e38db29d3107c2080fb154bbf9d75e512b64d87e44d",
    "hocolim_groups(circle)":
        "3925bc6b46136b8ff85a442a759de8fa2d55263a778a5bbacf05f204f9883fdb",
    "hocolim_groups(S3 x polygon(3))":
        "195518a1db78263652bb637f71afa618d0ad91922ab94e5d875a5b24b1072ba1",
    "hocolim_groups(cone(rotation(4)))":
        "add0e3cabdc812b4624809a1e028ae8cf3d276d672b64eee531bf491e55196cd",
    "hocolim_groups(inflate(reflection(4)))":
        "b49198ba1998208bcb9eb71523d1e8af12be0beaa1ae79591045f37117d0fb46",
    "hocolim_groups(trivial(Z3, pushout))":
        "04473fdd9ab5ce0e6d93ec0bad96a68ccb1599c7e31b448f13f3bd8643b82329",
    "transport(S3/Z2)":
        "e2a714dc077b3da9cf6c97387038bdd3bd7f2c430ee7549f7effda1029cb5af8",
    "transport(S3/S3)":
        "f9f70bcb1b8c055ec467d43d59fe2b2bd258603f99c88400876d82d4d06b1195",
    "transport(V4, seed 3)":
        "bd48b34060244565b29447b2f35d0c933f3b516821293a5249b80e52dd42a60e",
    "transport(S4, seed 5)":
        "0eac938c5bb902ff4b37236bbc2ad66f1aef9322f6313f481563c29ccbc65eab",
    "Z6 x polygon(3)":
        "54c5021054dd48f261fa2576e7e6deb9986ec5cb171842ec9eabe0fe03e6f40c",
    "V4 x cone(pushout)":
        "1fb817192d038d8bc89826a7b40bc0ea673d0c68b638a03592fe3cd20f599926",
    "Z5 x subsets_op(1)":
        "5177faaef2ccba801b873695d72c84c2adf6d1182ebd07c3304acd58eaae185b",
    "random actions":
        "7a96fcb8e112f919c388198185d1f7b9ecaf248593351e23ccdec03c9fe40a65",
    "random G-sets":
        "4e9c731822411cdf3e6cd67aa2cdee124020fbdeb9b56ba3d57ec7cead7c285d",
}
FREE_DIGEST = (  # 200 seeds of ``random_free_action``: group, space store, arrays, state
    "d4433cb735dd95740f40be93686d59ae3752393406e598f2f39cdcfa6ae8976c")


def check(cat) -> None:
    assert list(cat._ends.pos) == _positions(cat._ends.src, len(cat._ends.ident))[0]
    assert_revalidates(cat)


@pytest.mark.parametrize("case", list(CASES))
def test_store_is_the_recorded_one(case):
    cat = CASES[case]()
    assert digest(store(cat)) == DIGESTS[case]
    check(cat)


@pytest.mark.parametrize("case", list(RANDOM))
def test_drawn_stores_are_the_recorded_ones(case):
    cats = RANDOM[case]()
    assert digest([list(map(store, per_seed)) for per_seed in cats]) == DIGESTS[case]
    for per_seed in cats[::3]:
        for cat in per_seed:
            check(cat)


def free_draws() -> list:
    out = []
    for seed in range(200):
        rng = Random(seed)
        act = randgen.random_free_action(rng)
        out.append((act.group.name, store(act.space), act._arrays, rng.getstate()))
    return out


def test_drawn_free_actions_are_the_recorded_ones():
    """The free actions drawn for the ``audit`` are the same, and so is
    every later draw."""
    assert digest(free_draws()) == FREE_DIGEST
    for seed in range(0, 200, 10):
        act = randgen.random_free_action(Random(seed))
        check(act.space)
        assert_revalidates(act)


@pytest.mark.parametrize("module, case", [
    (fincat, "full(gpd)"), (fincat, "Lk(subsets_op(3), top)"), (fincat, "op(BS3)"),
    (fincat, "BZ3 x pushout"), (groupact, "quotient(S3 x polygon(3))"),
    (groupact, "hocolim_groups(cone(rotation(4)))"), (groupact, "transport(S3/Z2)"),
    (randgen, "Z6 x polygon(3)")])
def test_a_swapped_pair_of_cells_is_caught(monkeypatch, module, case):
    """Non-vacuity: a writer whose store has two cells of one row swapped
    gives another store, and the checked constructor rejects it."""
    written = fincat._stored

    def swapped(*args, **kwargs):
        cat = written(*args, **kwargs)
        rows = cat._ends.rows
        f = next(f for f, row in enumerate(rows) if len(row) > 1 and row[0] != row[1])
        a, b, *rest = rows[f]
        rows[f] = (b, a, *rest)
        return cat

    monkeypatch.setattr(module, "_stored", swapped)
    cat = CASES[case]()
    assert digest(store(cat)) != DIGESTS[case]
    with pytest.raises(ValidationError):
        assert_revalidates(cat)
