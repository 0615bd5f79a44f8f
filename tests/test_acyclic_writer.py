"""The acyclic families are written, not re-checked.

Posets and free categories on acyclic multigraphs are lawful by
construction, so ``zoo._acyclic`` writes their stores unchecked through
``fincat._stored``: ``subsets_poset_opposite``, ``polygon_scwol``,
``discrete_category`` (and ``terminal_category``), ``randgen.random_poset``
and ``randgen.random_skeletal_scwol``.  Their stores are pinned by sha256
digests recorded while they still went through the checked ``FinCat``
constructor: name, objects, identity map, morphism names, endpoints,
identities, rows, entry order, inverses and direct finiteness, and for the
random builders also the state of the generator after each draw (so that
every later draw of the audit stays the same).  Each store is also rebuilt
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
DIGESTS = {  # recorded through the checked constructor
    "subsets_op(0)":
        "921bbf3c43738965e94ee1505d1b8a67217a16a6decdecb3634606f21e462412",
    "subsets_op(1)":
        "f67caeb754ae79bdb1dfa9d577afdfcd86dd55e504a8f8f1efc17c0a87256348",
    "subsets_op(2)":
        "0895323d8bcf4a4056b065e477cf50bd4425d3310bf7694d9fbec5a2b640e749",
    "subsets_op(3)":
        "a58481bd2127bc98630f192c84bc8ee7ba917dfaa92d85e30ad508ef4c8b5546",
    "subsets_op(4)":
        "a51a5844bef36f62544f344733221550ec1b87b50eeef8cfc031874994e047a1",
    "subsets_op(5)":
        "9714d03adcc2bfb22ea12f64ce003411582c40c7f61be11f5c3cf78273fc73a6",
    "subsets_op(6)":
        "f0d2a68e69dbfb6a6005ff217c069a34acc269ecc686273b1b8be17836a37fac",
    "polygon(8)":
        "67f5973f5422c4d9eec271eb73ed1baaf6dd277167d783c6cf1072426f729814",
    "polygon(12)":
        "e2923e65ca6f8a309f4b76cd1597458a02ab93809259fe9b38347fecf563f9c0",
    "polygon(16)":
        "2c90d56477d2c57ede3582876c21c1491ff9094da5d2665ebd35e6493960c2d0",
    "polygon(20)":
        "0f88ad14a43040559c9aa13d646208188cb2a0d0441a2f234af477d647ac9485",
    "polygon(24)":
        "ea359b3f0f9d6c02959404d3111f1860a7a873b1206a6c623b84fc596f48ce44",
    "polygon(32)":
        "473f2c6c61f63372b32b9220b15f0b2a22c9db8a61fcf4f6dca0c887d2090f1f",
    "polygon(40)":
        "e3a48bced14152eee1bfe013f78430d92688c206d02daf8dbaedfd59a1807624",
    "polygon(48)":
        "54112ef7cca5855c6056615f221fc07bf88a4ea926e3693cc55590b3e8eec4ea",
    "polygon(64)":
        "af367a6f8b1513fadf0428cb457afb98ba025c3ed08f2d474c02d0b1b5e7ed44",
    "polygon(80)":
        "129b265faab85ece2e480f7ba4b9e581053aa1b3753c4614405ee183c949e572",
    "discrete(abc)":
        "cc87dff5ba517277d0651425bca0ad9ff9225fb0a0547d1095d5aa421ff0be91",
    "terminal":
        "9c5d1b15b04ad7a3168ff22aad8b42d04fcfbf87abe96840476967e045042e6b",
    "random_poset":
        "4b20ae2f4bc16cd740ce439776c681d63c4baeaced05251f781b35e43ead0b4a",
    "random_poset(8)":
        "b88897d12fb04b0f57208ae908f7f7cd007d5a5b72e65326e631a340c4b1255d",
    "random_skeletal_scwol":
        "947c9c41a7267d290ce28f6dd9d07b64d8dc62458493165fae7fdd3dfd418a1b",
    "random_skeletal_scwol(4, 0.5)":
        "429d2cfcf0ee9db3db487381409f8023520e73bc706b04619f30dd2c01f2ec5e",
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
