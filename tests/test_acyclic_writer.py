"""The acyclic families are written, not re-checked.

Posets and free categories on acyclic multigraphs are lawful by
construction, so ``zoo._acyclic`` writes their stores unchecked through
``fincat._stored``: ``subsets_poset_opposite``, ``polygon_scwol``,
``discrete_category`` (and ``terminal_category``), ``randgen.random_poset``
and ``randgen.random_skeletal_scwol``.  Their stores are pinned by sha256
digests: name, objects, identity map, morphism names, endpoints,
identities, rows, inverses and direct finiteness, and for the random
builders also the state of the generator after each draw (so that every
later draw of the audit stays the same).  A written store keeps no entry
order, so the digests were re-recorded without it on the code that still
kept one, whose digests with it were recorded while the stores still went
through the checked ``FinCat`` constructor.  Each store is also rebuilt
through the checked constructor (``helpers.assert_revalidates``).
Non-vacuity: a writer that swaps two composites fails both.
"""

from random import Random

import pytest

from eulcat import randgen, zoo
from eulcat.errors import ValidationError

from helpers import assert_revalidates, digest, store

POLYGONS = (8, 12, 16, 20, 24, 32, 40, 48, 64, 80)  # the posets workload's polygons
SEEDS = [*range(199), 409]  # seed 409 draws over 300 paths and rolls again


def draws(builder, *args) -> list:
    """The store of each seed's draw and the generator's state after it."""
    out = []
    for seed in SEEDS:
        rng = Random(seed)
        out.append((store(builder(rng, *args)), rng.getstate()))
    return out


CASES = {
    **{f"subsets_op({q})": lambda q=q: zoo.subsets_poset_opposite(q) for q in range(7)},
    **{f"polygon({n})": lambda n=n: zoo.polygon_scwol(n) for n in POLYGONS},
    "discrete(abc)": lambda: zoo.discrete_category("abc"),
    "terminal": zoo.terminal_category,
}
RANDOM = {
    "random_poset": (randgen.random_poset,),
    "random_poset(8)": (randgen.random_poset, 8),
    "random_skeletal_scwol": (randgen.random_skeletal_scwol,),
    "random_skeletal_scwol(4, 0.5)": (randgen.random_skeletal_scwol, 4, 0.5),
}
DIGESTS = {  # re-recorded at the parent without the entry order (module docstring)
    "subsets_op(0)":
        "ce11a6c85e972c5f9787e97557c13bc16aeb4360d97bc174594bef6948d1418a",
    "subsets_op(1)":
        "36566c5b9135a3845fb7cb0562402afdda5327f7c62348b9fb9dc3c353b9e0ce",
    "subsets_op(2)":
        "0eacb1651bbe2e4751b1a8118e0360f792d7cc899f480f4df37743dbadfa6798",
    "subsets_op(3)":
        "3b488b42ecbf68ae6d71b7275a878d2cba060c64d0d92e3ef466dfbe4560b6dc",
    "subsets_op(4)":
        "4aee2fca161aff4451349aabef2f872a14a197bedd70929ebcde8a033b30c7af",
    "subsets_op(5)":
        "894d60e1a3faa640513e58c6badf216e45941aad9ad6bb3cdf90d94e0af2b581",
    "subsets_op(6)":
        "8f99bc7dd8a9e628d360b9b5c6da81040954661cd271925966a13e87275aca26",
    "polygon(8)":
        "55debeb8a334016e7e496f07c1ec0f204d599f6e1f9a52416ac4a7986e7de84f",
    "polygon(12)":
        "96b93c844de632aa7976a6397d4dbdcf603421a1c42ce5f0a1bb1adf9b5cee21",
    "polygon(16)":
        "8baa8a32aad4d359beed4e13b5395b2063e0b6e9b9d23ac621ee756ebf43784c",
    "polygon(20)":
        "9c02eaccdb84b8331b502942992c2b3f7aa87771fa5603ee3324c8c790326cf4",
    "polygon(24)":
        "25ba4fa6b30bf06b8123f2151b46325658f0c57526a6c749103ad8084455085b",
    "polygon(32)":
        "01aa884033a744f0774c5a703aa74cdd17def464400f37b3c0bea4ae46afd1ce",
    "polygon(40)":
        "63d662e349ee9c3de997315d652a51fcc6020fd6230b25402eda95c104c90d94",
    "polygon(48)":
        "f5ced2323007bbf359415beec2bc69ca09dd5469dab78324d8b93f229ac46a82",
    "polygon(64)":
        "568b097200b485c6f74ce6403e084eb92d1e97b53c00cd4f7794730e29fe2f43",
    "polygon(80)":
        "cda83953c5c97fcd36a93e028dfcea8ac0cc45d933d2d520fb8852f25363a7fa",
    "discrete(abc)":
        "f4a09f5e57a96a1b3f1c3af3cd84476892e1d9320e4d1fa52e3d8c297782c3f7",
    "terminal":
        "06f2a6e7c7fec4578431088a748a2c80c65e502695082d7b31ca76eb55bd52ba",
    "random_poset":
        "411914d21852c8c898738a5f0a7b60c51cfcb8a8f54b8e4b197fa7f7ca8b1d0f",
    "random_poset(8)":
        "a596fedc03ba3a64c0c6bc02aeab1f058ef64c0508b685c471f61d47d77d1c16",
    "random_skeletal_scwol":
        "d61692176df351ababb84758fac3bd6d15f8abc970f23012334afb37ca210a95",
    "random_skeletal_scwol(4, 0.5)":
        "1862e1a13db92b7c83230bb217de3270979480bbe642f9f0f6aa65018df8dd13",
}


@pytest.mark.parametrize("case", list(CASES))
def test_store_is_the_recorded_one(case):
    cat = CASES[case]()
    assert digest(store(cat)) == DIGESTS[case]
    assert_revalidates(cat)


@pytest.mark.parametrize("case", list(RANDOM))
def test_draws_are_the_recorded_ones(case):
    builder, *args = RANDOM[case]
    assert digest(draws(builder, *args)) == DIGESTS[case]


@pytest.mark.parametrize("case", list(RANDOM))
def test_draws_revalidate(case):
    builder, *args = RANDOM[case]
    for seed in SEEDS:
        assert_revalidates(builder(Random(seed), *args))


def test_some_seed_rerolls(monkeypatch):
    """Over 300 paths, a draw rolls a sparser instance; seed 409 does."""
    calls = []
    drawn = randgen.random_skeletal_scwol

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return drawn(*args, **kwargs)

    monkeypatch.setattr(randgen, "random_skeletal_scwol", counting)
    for seed in SEEDS:
        randgen.random_skeletal_scwol(Random(seed))
    assert len(calls) > len(SEEDS)


def test_a_swapped_composite_is_caught(monkeypatch):
    """Non-vacuity: a writer that swaps the composites of its first two
    entries gives another store, and the checked constructor rejects it."""
    written = zoo._acyclic

    def swapped(name, objects, names, src, tgt, composites):
        composites = list(composites)
        f = next(f for f, listed in enumerate(composites) if listed)  # the first two entries
        a, b, *rest = composites[f]
        composites[f] = [b, a, *rest]
        return written(name, objects, names, src, tgt, composites)

    monkeypatch.setattr(zoo, "_acyclic", swapped)
    cat = zoo.subsets_poset_opposite(2)
    assert digest(store(cat)) != DIGESTS["subsets_op(2)"]
    with pytest.raises(ValidationError):
        assert_revalidates(cat)
