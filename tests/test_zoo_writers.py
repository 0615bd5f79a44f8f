"""The cone, the inflation and the one-object category of a group are
written off their input's rows, not re-checked.

``zoo.cone``, ``zoo.inflate`` and ``zoo.one_object_category`` write their
stores unchecked through ``fincat._stored``, each lawful by the proof in
its docstring.  Their stores on fixed inputs are pinned by sha256 digests
(``helpers.store``: name, objects, identity map, morphism names, endpoints,
identities, rows, entry order, inverses and direct finiteness), and each is
rebuilt through the checked constructor (``helpers.assert_revalidates``).
Non-vacuity: a cone whose new arrows compose with the wrong c[x] fails
both.
"""

import pytest

from eulcat import randgen, zoo
from eulcat.errors import ValidationError
from eulcat.groups import cyclic_group, symmetric_group

from helpers import assert_revalidates, digest, store

Z1, Z2, Z3, Z4, V4, Z5, Z6, S3 = randgen.group_pool()
CASES = {
    "cone(pushout)": lambda: zoo.cone(zoo.pushout_scwol()),
    "cone(polygon(4), v)": lambda: zoo.cone(zoo.polygon_scwol(4), "v"),
    "cone(cone(circle), s)": lambda: zoo.cone(zoo.cone(zoo.circle_scwol()), "s"),
    "cone(discrete(ab))": lambda: zoo.cone(zoo.discrete_category("ab")),
    "cone(BS3)": lambda: zoo.cone(zoo.one_object_category(S3)),
    "cone(E(abc))": lambda: zoo.cone(zoo.contractible_groupoid("abc")),
    "inflate(pushout)": lambda: zoo.inflate(zoo.pushout_scwol(), {"j": 2, "k": 3}),
    "inflate(circle)": lambda: zoo.inflate(zoo.circle_scwol(), {"x": 2, "y": 0, "z": 3}),
    "inflate(BZ3)": lambda: zoo.inflate(zoo.one_object_category(Z3), {"*": 3}, name="fat"),
    "inflate(E(ab))": lambda: zoo.inflate(zoo.contractible_groupoid("ab"), {"a": 2}),
    "inflate(cone(polygon(3)))": lambda: zoo.inflate(zoo.cone(zoo.polygon_scwol(3)),
                                                     {"t": 2, "e1": 2}),
    **{f"B{g.name}": lambda g=g: zoo.one_object_category(g) for g in randgen.group_pool()},
    "BS4 on o": lambda: zoo.one_object_category(symmetric_group(4), "o"),
    "BZ7": lambda: zoo.one_object_category(cyclic_group(7)),
}
DIGESTS = {  # recorded at the parent, whose reference copies these stores matched
    "cone(pushout)":
        "dbdcecb4c97f6646a126e23ee84372fbb53efee310de2eabe4300665b9100ed3",
    "cone(polygon(4), v)":
        "d3da2c0c60099e704902b9681f4639bc0674b5fedff006deada8518341d612da",
    "cone(cone(circle), s)":
        "dd3e5dea11844e15ad86421cdbd317ce64007003b1a2e001c75e2320eb065bb9",
    "cone(discrete(ab))":
        "ac299fa4b1d5d86843d1961a902078829fc0b84f5f3bb54742a33be097789956",
    "cone(BS3)":
        "1e46ad3c88fd3fa1de5695d41035c7a69b7913a3e7f6552594c6309e4ee98e41",
    "cone(E(abc))":
        "178324b660c745fe1235e59583cb92375141cf213490b230f92f2869b722d833",
    "inflate(pushout)":
        "efe4297a3a71830cf7c898779c58f599a3eaad4636f2eb8f455fcccd17095bcf",
    "inflate(circle)":
        "ee7b05e4a5f79b3a663cd24418d7c7783165e13f9c500eebb3ec1aa7f29d6184",
    "inflate(BZ3)":
        "f68e8c459b5db4def860c77ac2e1258995252796077d0cbdab536400aae7b4b3",
    "inflate(E(ab))":
        "0b35d915d78c7fe55d0cc9d5223b57e8b647d6ae01d2e84063667a602dad2879",
    "inflate(cone(polygon(3)))":
        "e76a07bf60eb91befb1a16bb08d64fba6d39a4d6a65e7c820522313f0934d769",
    "BZ1":
        "890ad1c41b8faee4680806b9dd65ce83d93529c0ad2f17ef7f914dd68290e13d",
    "BZ2":
        "a4937e432119a0dd69a739be2ec0a66f19165cf4f0b68e0175a75650fa4bd19c",
    "BZ3":
        "a7e52897087c92956b353b19e0d842bf0698d6344d37ecd939542efb7e5c0611",
    "BZ4":
        "d06fa7c68c2ed2250aab46437a7ef8e930ee6638d925ae6b2127cc55ca0b535c",
    "BV4":
        "d8009dc6e06cea3ee8e9dcbedc709837f7e1227b1f9ca42de60e17261abed87d",
    "BZ5":
        "2557e82b2f7d0b04c4a566db5a3eff9cc7ba9d9d3ba844a048b3d6db69b02775",
    "BZ6":
        "f4bdc888e2cf2014a101161f22b29a8a59c28e146dac68283f74224b64709384",
    "BS3":
        "e64a61ff1fec7525cb2f1131980e5aaa48fc2de1a6d9e7cd55790debbdb9cfc8",
    "BS4 on o":
        "65bd3647e6656414cc430ab2183e5147a42066cf35fd3fa23110b7da78b741b0",
    "BZ7":
        "54aafb0ddcb0fc8f0850797d6bf42d0133d82074d4fbb9b874e04488d010b8b4",
}


@pytest.mark.parametrize("case", list(CASES))
def test_store_is_the_recorded_one(case):
    cat = CASES[case]()
    assert digest(store(cat)) == DIGESTS[case]
    assert_revalidates(cat)


def test_a_cone_onto_the_wrong_arrow_is_caught(monkeypatch):
    """Non-vacuity: a writer that sends (c[t(m)], m) to c[t(m)], not c[s(m)]."""
    written = zoo._stored

    def wrong(name, objects, names, src, tgt, ident, rows, pos, order, inverses):
        top = len(names) - len(objects)  # id_apex; c[x] is top + 1 + x, last in row f < top
        return written(name, objects, names, src, tgt, ident,
                       [(*row[:-1], top + 1 + tgt[f]) if f < top and src[f] != tgt[f] else row
                        for f, row in enumerate(rows)], pos, order, inverses)

    monkeypatch.setattr(zoo, "_stored", wrong)
    cat = zoo.cone(zoo.pushout_scwol())
    assert digest(store(cat)) != DIGESTS["cone(pushout)"]
    with pytest.raises(ValidationError):
        assert_revalidates(cat)
