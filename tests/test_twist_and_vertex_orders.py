"""Two orders the complexes and the totals are built in, pinned.

The twists of ``groupact.complex_of_groups`` are listed by b, then by the
a into the source of b, each in the quotient's index order: the keys are
checked against that oracle, written here, and the items are pinned by
sha256 digests recorded while the twists were still read off the
quotient's entries, on 200 drawn actions and on the 15 actions of the
``groups`` bench.  (The manifests of a complex and of a pseudo diagram
sort what they write, so neither reads this order.)

``hocolim._VertexOrder`` numbers the morphisms of a Grothendieck total:
``out[x]`` lists the morphisms out of x by target, ties in index order, and
``ends`` and ``pos`` follow from it.  It is compared with an oracle written
here on every vertex of the ``audit`` diagrams at seeds 0 and 1009 and of
the ``groups`` pseudo diagrams.  Non-vacuity: an order that breaks ties in
reverse index order fails the comparison.
"""

from random import Random

import pytest

from eulcat import groupact, hocolim, randgen

from helpers import digest, load_workloads

DRAWN_SEEDS = range(200)
DRAWN_DIGEST = "4e521a19f25637905cace6d4c00ca0a4454eed24b606539c2ff8744229db0d7f"
GROUPS_DIGESTS = {
    "triv-S3-poly3": "1c1c3d5b8309bca66169a3099290c99719e5c1981b01b427e5ab0b1fdfd7b809",
    "triv-S3-cone3": "dff5b21ca8f71b69ea6ed87f06fb9d4bcf5fa93fdafae3d2b88e14792e7cfe74",
    "triv-S3-poly6": "0376e7c6343b7c5130dee8d1e0c9e1a2622efa97d44a7c8c47140cefe6a50924",
    "triv-S3-cone6": "1d68a0cbd0c6672efa628e4bca484529d148dd1e04d592ea38b25ce76ae68184",
    "triv-S4-poly2": "8cef80aa9911779182209ba81c81faeb0b7afcd3ae3f2a01b07d84a50293bbc5",
    "free-S4-cone2": "e3c28fc5b27b0f487ca18e4ca8df4f4f63549334cf5547fa4e15f1f6e30b80ee",
    "triv-Z3-poly9": "dcc75271c76e70b0c55d3e6b3089603b69428e2759ebb87429db7ccab0fa9bae",
    "triv-Z3-cone9": "01c5f49b95e1619d841b09cb336edaf9d965100024c146ae3e9c1e532a1311ea",
    "triv-Z5-poly6": "e323a01b79d4e7c4d45ee5966405263ec01394252c9a560161849cde30a49d9c",
    "triv-Z5-cone6": "e310fdef2d4b65d1db827f2994e9c1d09cd0c23f95d8afe9f5bab1f6396b5744",
    "triv-Z7-poly4": "753fa412050a2fe93479249fe17e136f29b9e12cef9a4c7c8d526b687b02b9f2",
    "triv-Z7-cone4": "d7734a6c88165f4489f9c29c1898e0a47123b107bf8037eef628176409526382",
    "free-S3-cone4": "7a188915090b4c7079dc6eb018288caa1f2941399a35e7cdab5eed9eef9199b8",
    "free-Z4-cone5": "3f640a74ae388068a5711a7d5cce8dcfdb64f25c11db4ba744eaf4138206cc00",
    "free-Z5-cone4": "05a813e994833d48f45953616d22c6d4cfebad1da8a542adbe78c18a36997794",
}


def named_twists(action) -> list:
    """The twists of the complex of ``action``, as items, after checking
    that their keys are listed by b, then by the a into s(b), by index."""
    built = groupact.complex_of_groups(action)
    qr, twists = built.quotient.category._ends, built.complex.twists
    mors = range(len(qr.names))
    assert list(twists) == [(qr.names[b], qr.names[a]) for b in mors for a in mors
                            if qr.tgt[a] == qr.src[b]]
    return list(twists.items())


def groups_actions() -> dict:
    """The actions of the ``groups`` bench, by the name of their files."""
    workloads = load_workloads()
    return {f"{mode}-{g}-{space}{n}": workloads._action(g, mode, space, n)[0]
            for g, mode, space, n in workloads.SIZES["full"]["groups"]}


def test_drawn_twists():
    twists = [named_twists(randgen.random_action(Random(seed))) for seed in DRAWN_SEEDS]
    assert sum(map(len, twists)) > 1000
    assert digest(twists) == DRAWN_DIGEST


@pytest.mark.parametrize("name", list(GROUPS_DIGESTS))
def test_groups_twists(name):
    assert digest(named_twists(groups_actions()[name])) == GROUPS_DIGESTS[name]


def test_every_groups_action_is_pinned():
    assert list(groups_actions()) == list(GROUPS_DIGESTS)


def oracle(ends) -> tuple:
    """(out, ends, pos) of a vertex with endpoint arrays ``ends``: the
    morphisms out of each object sorted by (target, index), their targets,
    and the place of each morphism in its list."""
    src, tgt = ends.src, ends.tgt
    out = [sorted((f for f, x in enumerate(src) if x == obj), key=lambda f: (tgt[f], f))
           for obj in range(len(ends.ident))]
    return out, [[tgt[f] for f in fs] for fs in out], {f: k for fs in out for k, f in enumerate(fs)}


def vertices() -> list:
    """Every vertex of the ``audit`` diagrams at seeds 0 and 1009 (200
    instances each) and of the ``groups`` pseudo diagrams."""
    workloads = load_workloads()
    cats = [cat for seed in (0, 1009) for d in workloads.audit_instances(seed, 200)[0]
            for cat in d.vertex.values()]
    for action in groups_actions().values():
        pseudo = groupact.complex_to_pseudo_diagram(groupact.complex_of_groups(action).complex)
        cats += pseudo.vertex.values()
    return cats


def mismatches(make) -> int:
    """How many vertices ``make`` orders otherwise than the oracle."""
    wrong = 0
    for cat in vertices():
        order = make(cat._ends)
        wrong += (order.out, order.ends, dict(order.pos)) != oracle(cat._ends)
    return wrong


class ReversedTies:
    """Morphisms by target, ties in reverse index order."""

    def __init__(self, ends):
        src, tgt = ends.src, ends.tgt
        self.out = [sorted((f for f, x in enumerate(src) if x == obj), key=lambda f: (tgt[f], -f))
                    for obj in range(len(ends.ident))]
        self.ends = [[tgt[f] for f in fs] for fs in self.out]
        self.pos = {f: k for fs in self.out for k, f in enumerate(fs)}


def test_vertex_orders():
    assert len(vertices()) > 1000
    assert mismatches(hocolim._VertexOrder) == 0


def test_reversed_ties_are_seen():
    assert mismatches(ReversedTies) > 0
