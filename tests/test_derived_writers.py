"""The derived categories are written off their input's rows, not re-checked.

``fincat.full_subcategory``, ``lower_link``, ``opposite`` and ``product``,
``groupact.quotient``, ``hocolim_groups`` and ``_transport_groupoid``, and
the space of ``randgen.induced_free_action`` write their stores unchecked
through ``fincat._stored``, each lawful by the proof in its docstring, and
``randgen.cone_action``, ``inflate_action`` and ``induced_free_action``
write their arrays unchecked.  This module is the one pin of each
(``scripts/mutants.py`` found no mutant that a name-level copy killed and
these digests did not).  Their stores are pinned by sha256 digests
(``helpers.store``: name, objects, identity map, morphism names, endpoints,
identities, rows, inverses and direct finiteness) on fixed inputs and on
seeded draws, re-recorded without the entry order (a written store keeps
none) on the code that still kept one, whose digests with it were recorded
while every writer still scattered entries into rows.  The free actions
``random_free_action`` draws are pinned with their group, their arrays and
the state of the generator after each draw; the arrays of the fixed actions
and of those ``random_action`` draws, lifts among them, with their spaces,
and of each one's inflation at its first object, or the message that rejects
it (``LIFT_DIGEST``).  Each store is rebuilt through the checked constructor
(``helpers.assert_revalidates``), and its positions are the ones
``groups._positions`` finds.  Non-vacuity: a writer that swaps two cells of
a row fails both.
"""

from random import Random

import pytest

from eulcat import fincat, groupact, randgen, zoo
from eulcat.errors import ValidationError
from eulcat.groups import _positions, symmetric_group

from helpers import (assert_revalidates, digest, s3_chain, s3_flag_action, split_idempotent,
                     store)

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


def flag_complex():
    action, h_elements = s3_flag_action()
    return groupact.complex_of_groups(action, h_elements=h_elements).complex


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
    # twists that commute with no 3-cycle: the order of the factors of a composite shows
    "hocolim_groups(S3 chain)": lambda: groupact.hocolim_groups(
        groupact.ComplexOfGroups(*s3_chain(conjugating=True))),
    "hocolim_groups(S3 flag)": lambda: groupact.hocolim_groups(flag_complex()),
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
DIGESTS = {  # re-recorded at the parent without the entry order (module docstring)
    "full(subsets_op(2))":
        "8d4c2cbfff66b3647b8b85a23c4267fe0cfc57d03ea492414195da2ea6be0563",
    "full(cone(BS3))":
        "2f8ca98edcfd3c5e64bd05d44964aff2a42f0c27db17757a70fbaae26cc25c8d",
    "full(gpd)":
        "13fa054de4aec8ad93d3fa338b5145f582c4a680ab771e9f3b481101c07e5c83",
    "full(E(abcd))":
        "f9330c29c0635b7d19c349fea1901969119328e5715340e4aa3144f5bf76e5ae",
    "full(split)":
        "2fad0becf9f58051b854c6e36398ee4ea1ad4e1f468cfcb08e1a61442882f1ba",
    "Lk(polygon(4), e0)":
        "0cc2ac7de2b010c98d79cc0f2f66fe49dbc8c2f18799e4275829244f69c051a8",
    "Lk(cone(polygon(3)), e1)":
        "6a1f8ac67c7aec843a286b1d64c24658d06a706d4157593730879bfb3ee813b4",
    "Lk(subsets_op(3), top)":
        "343a9b93eeaa5d8939906f41fe39c716e9064c27c14cac1e19fe938ea40f36fd",
    "Lk(inflate(cone))":
        "2e4641b0d0b1704da7177abf00833699ab1a4fb749fb551b6b53b651b71716ef",
    "op(BS3)":
        "70fd373137461c1dc04c5fdf7d99b6ca91795f1f9d2f7d4c8f68251d44734ff2",
    "op(subsets_op(2))":
        "e6cd9be81a829c139e574f83bd56ce3deccba49d0ac73271eea4d4b45dc26c3f",
    "op(gpd)":
        "14e8220bc9b2319400d9d06c9d3ed2a01699ca979d8a6febcc610251283269f0",
    "op(cone(E(abc)))":
        "505c99326b709fa6c308252ddaea7be4ab526082ad4a236268ff265bc67024ad",
    "op(split)":
        "cbf132743e7a1b3d8d853014dac6ee879240ff812748a1859c7535eac3f91b67",
    "BZ3 x pushout":
        "0fadf9246f86c64f665113fbd2f57410ac88d66e1b6a50b43059eb2dc69ba154",
    "polygon(3) x gpd(Z2)":
        "8f93a1bd1307903a2aa2ccd53066baf55f79f0b06439d357d0987a64ac23933a",
    "E(ab) x BS3":
        "a35f62839cacf311a6217b97765d6c3857adfc70c3b1d31a83d81a4615afb6e2",
    "split x arrow":
        "692de57163939699abb5d8092eeeda15cb2a327ddea04dc38895caab029681e2",
    "quotient(rotation(6, 2))":
        "b4fa81f5b39adeb4198e2c0824dafecc4a76ea050078ff82c99f33a02b5a1d5c",
    "quotient(reflection(4))":
        "4f1375a11a08082362671e10ddc7485714b6952c715238e612cf5392dcb7be25",
    "quotient(circle)":
        "070893ef0dc896ae9c713dc3c5d68f75e2aeda4bda1871baa6ec43e8744e0fe8",
    "quotient(S3 x polygon(3))":
        "6a22e21250dd09af1ec942d41e0a46c5f76791e20fc1ed49bb148946693c7dfc",
    "quotient(cone(rotation(4)))":
        "149014263fa98516d69014b0613cce4a5a820619ad2580cfaa90a57fa804fd45",
    "quotient(inflate(reflection(4)))":
        "f145823bd48a3b4e17f15ba51b40d5fbf180898d2460043d85479cfb25662695",
    "quotient(trivial(Z3, pushout))":
        "3ecffe245263af83d1d6de2c75724af071a13991bb95368b439cca7b4bb11142",
    "hocolim_groups(rotation(6, 2))":
        "e19235cc625e46d9a1c20b2c2d493ae7790436df49f0a740ab9917bd89d9b519",
    "hocolim_groups(reflection(4))":
        "39b23eab5353e3a93ab38af30eb27c1af16a6f783ef77135e128caef3b2eb93e",
    "hocolim_groups(circle)":
        "61214711aaf4e9a7e8fcfc4b509fd81fb008137faa6bcb9f72eafa54c9ecb9c1",
    "hocolim_groups(S3 x polygon(3))":
        "e976853dd5e76c9842e146bdc8731866392cf5ab9e8bb36333ece089c277f7ca",
    "hocolim_groups(cone(rotation(4)))":
        "968797cb73b188adea70b1ccb5491db490b3b25fc274e24cc343051b1f18c050",
    "hocolim_groups(inflate(reflection(4)))":
        "2d52f9c6fa466e8301deaef34c8b061dbbcb4e43d8a87d840c93e2f9f690d55e",
    "hocolim_groups(trivial(Z3, pushout))":
        "6d1682233b1a44c5a45eba8be14037d7de47239668e5177d9fd1d7979d81d197",
    "hocolim_groups(S3 chain)":
        "bd1c79ce1df141b8dcae2f0446de7ca327d3d1a9c45a8f4f6e1ccca73fb99534",
    "hocolim_groups(S3 flag)":
        "7a44b30688d8519dfa2a81c4b2037554590dbab7f4135089d483320e8efa822b",
    "transport(S3/Z2)":
        "535c526a18684f240b0eb4743f683146eacbd8ea86f723e9870394f6ba266490",
    "transport(S3/S3)":
        "9e03f6431aefa0060ba4d082e103b828b11b4251c9a5c698d4aec84099f12bd6",
    "transport(V4, seed 3)":
        "5e4df21271f84c3c698f037b7a688167b8326bdd7c7d753b4c9abdf22eed2e18",
    "transport(S4, seed 5)":
        "b0e3e2d0023faa117e0fb82df93199e1e66e2da52b4b4e9f96d784c5084bcb7d",
    "Z6 x polygon(3)":
        "8640662dbf61c333ca851e954e81bb8960467f58caade5eb07c4a2522a2a50b3",
    "V4 x cone(pushout)":
        "c52853524500993fec9ae511203d8199c97b904dec10a57ffe76f08c9f0c85fb",
    "Z5 x subsets_op(1)":
        "1d23d2916d6109e27e7be46d69c1da820b0749d12f1a59e14d8b594015b4f63b",
    "random actions":
        "5e5bfe325c7496306a76c7bd1e3238b8278c0cc1869c9d13967d54e980f27a2b",
    "random G-sets":
        "fd9afbdd3ff987ca00f2a554fbb649c81e18bed793ac4f6bbad1d1b2a715b169",
}
FREE_DIGEST = (  # 200 seeds of ``random_free_action``: group, space store, arrays, state
    "c2c114c086047e1f862542623cb9c082115926852aa4994292dc6de1d7a35f8b")
LIFT_DIGEST = (  # ``lifted_actions``, recorded before the lifts' name-level copies were retired
    "23ae7eabe5bdb537c7f329af912c5e81085f2769634fc7397bbac3810001a967")


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


def arrays(action) -> list:
    return [(list(fo), list(fm)) for fo, fm in action._arrays]


def lifted_actions() -> list:
    """The space's store and the arrays of each fixed action and of the
    action each seed draws (``random_action``), the cone and inflation lifts
    and the induced free actions among them; and the arrays of each one's
    inflation with two copies of its first object, or the message that
    rejects those counts when they are not constant on its orbits."""
    out = []
    for act in [*actions().values(), *(randgen.random_action(Random(seed)) for seed in SEEDS)]:
        try:
            fat = arrays(randgen.inflate_action(act, {act.space.objects[0]: 2}))
        except ValueError as exc:
            fat = str(exc)
        out.append((store(act.space), arrays(act), fat))
    return out


def test_lifted_actions_are_the_recorded_ones():
    """The lifts write the arrays they wrote when the digest was recorded,
    and each lifted action passes the checked constructor."""
    assert digest(lifted_actions()) == LIFT_DIGEST
    for act in [*actions().values(), *(randgen.random_action(Random(s)) for s in SEEDS[::3])]:
        check(act.space)
        assert_revalidates(act)


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
