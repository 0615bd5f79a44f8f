"""The cone, the inflation and the one-object category of a group are
written off their input's rows, not re-checked.

``zoo.cone``, ``zoo.inflate`` and ``zoo.one_object_category`` write their
stores unchecked through ``fincat._stored``, each lawful by the proof in
its docstring.  Their stores on fixed inputs are pinned by sha256 digests
(``helpers.store``: name, objects, identity map, morphism names, endpoints,
identities, rows, inverses and direct finiteness), and each is
rebuilt through the checked constructor (``helpers.assert_revalidates``).
A written store keeps no entry order, so no digest holds one: each was
re-recorded without it on the code that still kept one, whose digests
with it matched those recorded before.
A negative copy count is read as 0.  These digests are the one pin of
the three writers: the name-level copies they were once compared with are
gone, as ``scripts/mutants.py`` found no mutant that the comparison killed
and these digests did not.  Non-vacuity: a cone whose new arrows compose
with the wrong c[x] fails both.
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
    "inflate(pushout, k -1)": lambda: zoo.inflate(zoo.pushout_scwol(), {"j": 2, "k": -1}),
    "inflate(BZ3)": lambda: zoo.inflate(zoo.one_object_category(Z3), {"*": 3}, name="fat"),
    "inflate(E(ab))": lambda: zoo.inflate(zoo.contractible_groupoid("ab"), {"a": 2}),
    "inflate(cone(polygon(3)))": lambda: zoo.inflate(zoo.cone(zoo.polygon_scwol(3)),
                                                     {"t": 2, "e1": 2}),
    **{f"B{g.name}": lambda g=g: zoo.one_object_category(g) for g in randgen.group_pool()},
    "BS4 on o": lambda: zoo.one_object_category(symmetric_group(4), "o"),
    "BZ7": lambda: zoo.one_object_category(cyclic_group(7)),
}
DIGESTS = {  # re-recorded at the parent without the entry order (module docstring)
    "cone(pushout)":
        "43c2849339cb085b908a15efb541826bdd50f317f9d84bad67464c59df0fde62",
    "cone(polygon(4), v)":
        "b6eaeb7a7f4cc525ea4c40a08319ed07de5d1842dd7a59622e42ce2d2eb51527",
    "cone(cone(circle), s)":
        "b98efe453b964ef41ec96d7d5b887b6480725ce22b1dd8cd45ff5fddf105204c",
    "cone(discrete(ab))":
        "d49486156beea8aa0affab05f70e1d3bd1d58a96b8387a48e3f9cdf86922c6d9",
    "cone(BS3)":
        "1b44aa59a8e9309867eb9dbeb965885d407a9777587663fd9aaf1071f502395a",
    "cone(E(abc))":
        "d3d6041028c2d0e78e80a9962c41206acab1c7464b9508191aa07f566afdf41f",
    "inflate(pushout)":
        "2aa1931c6b29e908f94b1e6ed8747b45498ab743736fd41158cc55eeeb0c0d4b",
    "inflate(circle)":
        "3e8d3743d74dc5a57d2ab0641a61d76b632e509d717789dbee20434045e61b39",
    "inflate(pushout, k -1)":  # a negative count is read as 0
        "b0a68a36a1ff8eb03704b25ed9f810878004846addd9d84a8990e16c7bc76128",
    "inflate(BZ3)":
        "1084ce16e9341755479b74ccd2bb101ec32e7f733bca3d269ad8244a96c5bb10",
    "inflate(E(ab))":
        "88fad50d552117b98bedbcbd6ded299365ef6564ba93deee83f0ee06d516a635",
    "inflate(cone(polygon(3)))":
        "5746c3722eff7b634b46f16b1dba00a97ac85a4045170507e425c1be377ec6e2",
    "BZ1":
        "377fa5afc4bc92ba316b51ade9373856f6430bab0fc9e33b7a7725bb7d62f4b1",
    "BZ2":
        "fa8fd7b15dcf8f6ac0d0ec4c1e2c8e1c04e5696a3279621c1c339d1289d18ca1",
    "BZ3":
        "5a2068b344e89d964fd31eddc9a07c8d6dc6658d2fa32705c2fccacf4b219cdf",
    "BZ4":
        "af845155e0f41e438255c1fdea66783f39af0856ba0c8023fd2f16c520ead5e9",
    "BV4":
        "6fec7053971a27ff6365be3427eda0565be574695211fb5fe8fde6dbaf6c92f8",
    "BZ5":
        "3bc1c65a2bbbeed9e05c169981f7af44c223d3b77bdc34569a5abed2adf2927f",
    "BZ6":
        "386962626da1b2379e168cf5d5646ac519183b7914ebeb8c8fe43400b2d6c9e1",
    "BS3":
        "b4a23be4d4bd799baf8ff93b69cfa6ecfd2c6411c0f69b1d8bc9b806f0dce0ff",
    "BS4 on o":
        "a6b08fd35c357c3f3ec64348a776e414441e630718ae28bcdab3ad0a260c8068",
    "BZ7":
        "83987e150feac2a5169990275554776c7d05d929c830a462dfb966cd0cd73d42",
}


@pytest.mark.parametrize("case", list(CASES))
def test_store_is_the_recorded_one(case):
    cat = CASES[case]()
    assert digest(store(cat)) == DIGESTS[case]
    assert_revalidates(cat)


def test_a_cone_onto_the_wrong_arrow_is_caught(monkeypatch):
    """Non-vacuity: a writer that sends (c[t(m)], m) to c[t(m)], not c[s(m)]."""
    written = zoo._stored

    def wrong(name, objects, names, src, tgt, ident, rows, pos, inverses):
        top = len(names) - len(objects)  # id_apex; c[x] is top + 1 + x, last in row f < top
        return written(name, objects, names, src, tgt, ident,
                       [(*row[:-1], top + 1 + tgt[f]) if f < top and src[f] != tgt[f] else row
                        for f, row in enumerate(rows)], pos, inverses)

    monkeypatch.setattr(zoo, "_stored", wrong)
    cat = zoo.cone(zoo.pushout_scwol())
    assert digest(store(cat)) != DIGESTS["cone(pushout)"]
    with pytest.raises(ValidationError):
        assert_revalidates(cat)
