"""The one JSON writer, ``manifest._dumps``, against ``json.dumps``.

``_dumps(v)`` must equal ``json.dumps(v, indent=2, sort_keys=True)`` byte for
byte on every JSON value, and raise the same error where json.dumps does.
``dump_file`` must write what ``json.dump`` with those options wrote, plus a
newline, for every manifest kind.  ``category_payload``, which reads a
category's integer arrays, must give the payload and bytes of the
name-level writer it replaced (``helpers.reference_category_payload``).
A category inside a value is written from its rows (``_write_category``):
the text must be that of ``json.dumps`` with ``category_payload`` in its
place, at any depth.
"""

import copy
import itertools
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulcat import manifest, randgen, zoo
from eulcat.fincat import FinCat, Morphism, full_subcategory, opposite, product, validate
from eulcat.groupact import complex_of_groups, complex_to_pseudo_diagram, hocolim_groups, quotient
from eulcat.groups import cyclic_group, symmetric_group
from eulcat.hocolim import bar_spectrum, constant_diagram, grothendieck, grothendieck_pseudo

from helpers import monoid_z2_mult, reference_category_payload, split_idempotent
from strategies import SEEDS, TWISTED_ACTION_SEEDS, groupoids, posets, scwols, strict_diagrams

texts = st.text()  # control and non-ASCII characters included
string_lists = st.lists(texts) | st.lists(texts).map(tuple)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | texts
    | string_lists
    | st.lists(st.lists(texts, min_size=1))
    | st.lists(st.lists(texts, min_size=1).map(tuple))
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(texts, children),
    max_leaves=30,
)


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


class Text(str):
    pass


@settings(max_examples=150, deadline=None)
@given(json_values)
@example([("a", "b"), ["c", "d"], ("e", "f")])  # equal-length string lists and tuples
@example([["a"], ["b", "c"], ("d",)])  # ragged
@example([["a", Text("b\n"), "c"]])
@example([["a", "b", "c"], ["d", "e", 1]])  # the fallback after part of the stream is quoted
@example([["\ud800", "x", "\udfff"], ["\udbff\udc00", "y", "z"]])
@example("\ud800")
@example(["\ud800", "\x00\x1f\x7fé "])
@example([["a"], []])
@example([["a"], ["b", 1]])
@example([["a"], "b"])
@example({"k": [[], {}, (), [["x", "y"], ("z",)]]})
def test_matches_json_dumps(value):
    assert manifest._dumps(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": [0.25, 2]}, {1: "a", 2: "b"}, {"a": {3: None}}, [True, 1e300, -0.0]],
)
def test_other_values_go_to_json_dumps(value):
    assert manifest._dumps(value) == reference(value)


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), {"a": [Fraction(1)]}, {1: "a", "b": 2}, {"a": object()}]
)
def test_same_error_as_json_dumps(value):
    with pytest.raises(Exception) as want:
        reference(value)
    with pytest.raises(want.type) as got:
        manifest._dumps(value)
    assert str(got.value) == str(want.value)


def test_cycle_raises_as_json_dumps():
    cyclic = []
    cyclic.append(cyclic)
    with pytest.raises(ValueError, match="Circular reference detected"):
        manifest._dumps({"a": cyclic})


def _pseudo():
    return complex_to_pseudo_diagram(complex_of_groups(randgen.circle_action()).complex)


MANIFESTS = {
    "category": lambda: zoo.inflate(zoo.pushout_scwol(), {"j": 2, "k": 1, "l": 1}),
    "group": lambda: cyclic_group(6),
    "diagram": lambda: constant_diagram(
        zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2))
    ),
    "pseudo_diagram": _pseudo,
    "action": randgen.circle_action,
    "complex": lambda: complex_of_groups(randgen.circle_action()).complex,
    "spectrum": lambda: bar_spectrum(zoo.pushout_scwol()),
}


def test_every_kind_is_covered():
    assert set(MANIFESTS) == set(manifest.KINDS)


@pytest.mark.parametrize("kind", sorted(MANIFESTS))
def test_dump_file_bytes(kind, tmp_path):
    value = MANIFESTS[kind]()
    path = tmp_path / "m.json"
    manifest.dump_file(str(path), kind, value)
    want = tmp_path / "want.json"
    with open(want, "w", encoding="utf-8") as fh:
        json.dump(manifest.serialize(kind, value), fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == want.read_bytes()


# -- category_payload against the name-level writer -------------------------------------


def assert_writes_as_before(cat) -> None:
    """``category_payload`` reads the integer arrays; its payload equals the
    name-level writer's (``helpers.reference_category_payload``), and both
    are written to the same bytes."""
    got = manifest.category_payload(cat)
    want = reference_category_payload(cat)
    assert got == want
    assert manifest._dumps(got) == manifest._dumps(want)


def twisted_complex(seed):
    return complex_of_groups(randgen.random_action(Random(seed))).complex


def renamed(cat: FinCat) -> FinCat:
    """``cat`` with names that share prefixes and are not ASCII: the k-th
    morphism is one of a few prefixes followed by k // 6 letters b."""
    prefixes = ["", "\u00e9", "\ud800", "a\x00", "A", "a"]
    new = {m.name: prefixes[k % 6] + "b" * (k // 6) for k, m in enumerate(cat.morphisms)}
    obj = {x: "\u00f8" * k + "x" for k, x in enumerate(cat.objects)}
    return FinCat(tuple(obj[x] for x in cat.objects),
                  tuple(Morphism(new[m.name], obj[m.source], obj[m.target]) for m in cat.morphisms),
                  {obj[x]: new[e] for x, e in cat.identity.items()},
                  {(new[g], new[f]): new[gf] for (g, f), gf in cat.composition.items()},
                  name=cat.name)


def numbered_manifest(cat: FinCat, seed: int) -> dict:
    """The payload of ``cat`` with every id a JSON number and the compose
    entries shuffled."""
    payload = reference_category_payload(cat)
    obj = {x: k for k, x in enumerate(payload["objects"])}
    mor = {m["id"]: k for k, m in enumerate(payload["morphisms"])}
    compose = [[mor[g], mor[f], mor[gf]] for g, f, gf in payload["compose"]]
    Random(seed).shuffle(compose)
    return {"objects": list(obj.values()),
            "morphisms": [{"id": mor[m["id"]], "source": obj[m["source"]],
                           "target": obj[m["target"]]} for m in payload["morphisms"]],
            "identity": {str(obj[x]): mor[e] for x, e in payload["identity"].items()},
            "compose": compose}


ZOO = {
    "pushout": zoo.pushout_scwol,
    "polygon5": lambda: zoo.polygon_scwol(5),
    "subsets3": lambda: zoo.subsets_poset_opposite(3),
    "S3": lambda: zoo.one_object_category(symmetric_group(3)),
    "monoid": monoid_z2_mult,
    "split": split_idempotent,
    "groupoid": lambda: zoo.contractible_groupoid(["p", "q", "r"]),
    "product": lambda: product(zoo.pushout_scwol(), zoo.parallel_pair_scwol()),
    "opposite": lambda: opposite(zoo.subsets_poset_opposite(3)),
    "full_subcategory": lambda: full_subcategory(
        zoo.inflate(zoo.pushout_scwol(), {"j": 2, "k": 1, "l": 1}), ["j0", "j1", "k0"]),
}


class TestCategoryPayload:
    @pytest.mark.parametrize("seed", TWISTED_ACTION_SEEDS)
    def test_totals(self, seed):
        """Strict and pseudo Grothendieck totals (``hocolim._Total``), and
        the homotopy colimit of a complex of groups built by names."""
        assert_writes_as_before(grothendieck(randgen.random_strict_diagram(Random(seed))).category)
        cplx = twisted_complex(seed)
        assert_writes_as_before(grothendieck_pseudo(complex_to_pseudo_diagram(cplx)))
        assert_writes_as_before(hocolim_groups(cplx))

    def test_total_over_an_index_not_directly_finite(self):
        """The split-idempotent index: the build keeps the composition rows."""
        total = grothendieck(constant_diagram(split_idempotent(),
                                              zoo.one_object_category(cyclic_group(3)))).category
        assert total._plan.rows is not None
        assert_writes_as_before(total)

    def test_total_with_its_records_made(self):
        total = grothendieck_pseudo(complex_to_pseudo_diagram(twisted_complex(14)))
        total.morphisms  # made before the write
        assert_writes_as_before(total)

    @pytest.mark.parametrize("kind", sorted(ZOO))
    def test_name_keyed_categories(self, kind):
        assert_writes_as_before(ZOO[kind]())
        assert_writes_as_before(renamed(ZOO[kind]()))

    @pytest.mark.parametrize("kind", sorted(ZOO))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_loaded_from_numbered_unsorted_entries(self, kind, seed):
        """A loaded manifest keeps its entries in their order; ids 0..n-1
        read as strings sort as strings ("10" before "2")."""
        assert_writes_as_before(validate(numbered_manifest(ZOO[kind](), seed)))

    @pytest.mark.parametrize("build", [
        lambda: grothendieck(randgen.random_strict_diagram(Random(TWISTED_ACTION_SEEDS[0]))).category,
        lambda: grothendieck_pseudo(complex_to_pseudo_diagram(twisted_complex(18))),
        lambda: validate(reference_category_payload(ZOO["product"]())),
    ], ids=["strict", "pseudo", "loaded"])
    def test_writing_makes_no_name_table(self, build):
        """Writing a total or a loaded category makes no records, lookup
        table or name-keyed table, and pins no composition rows on a
        total's plan."""
        cat = build()
        manifest.category_payload(cat)
        assert not {"composition", "morphisms", "_hom"} & vars(cat).keys()
        plan = vars(cat).get("_plan")
        assert plan is None or plan.rows is None


# -- a category inside a value, written from its rows ----------------------------------------


NESTINGS = [
    lambda c: c,
    lambda c: {"category": c, "objects": 3, "chi_L": None},
    lambda c: {"a": [c, {"b": c, "c": [1, "x"]}], "z": (True, "y")},
]


def assert_renders_as_its_payload(cat) -> None:
    """``_dumps`` of a value holding ``cat`` at depths 0-2 is ``json.dumps``
    of the value with ``category_payload(cat)`` in its place; so is the
    ``json.dumps`` fallback, reached through a float in the value."""
    payload = manifest.category_payload(cat)
    for nest in NESTINGS:
        assert manifest._dumps(nest(cat)) == reference(nest(payload))
    assert manifest._dumps([0.5, cat]) == reference([0.5, payload])


def with_names(cat: FinCat, morphism, obj) -> FinCat:
    """``cat`` with morphism k named ``morphism(k)`` and object k ``obj(k)``."""
    new = {m.name: morphism(k) for k, m in enumerate(cat.morphisms)}
    objs = {x: obj(k) for k, x in enumerate(cat.objects)}
    return FinCat(tuple(objs[x] for x in cat.objects),
                  tuple(Morphism(new[m.name], objs[m.source], objs[m.target])
                        for m in cat.morphisms),
                  {objs[x]: new[e] for x, e in cat.identity.items()},
                  {(new[g], new[f]): new[gf] for (g, f), gf in cat.composition.items()},
                  name=cat.name)


ODD_NAMES = ['"', "\\", "\x00", "\x1f", "\u00e9", "\ud800", "\udbff\udc00", "\U0001f600", "a b", ""]


def odd(k: int) -> str:
    return ODD_NAMES[k % len(ODD_NAMES)] + "m" * (k // len(ODD_NAMES))


class TestWriteCategory:
    @pytest.mark.parametrize("kind", sorted(ZOO))
    def test_zoo(self, kind):
        assert_renders_as_its_payload(ZOO[kind]())
        assert_renders_as_its_payload(renamed(ZOO[kind]()))

    @pytest.mark.parametrize("kind", sorted(ZOO))
    def test_names_that_need_escapes(self, kind):
        """Quotes, backslashes, control characters, non-ASCII, lone and
        paired surrogates and the empty name, as morphism, object and
        category names."""
        cat = with_names(ZOO[kind](), odd, lambda k: "o" + odd(k))
        assert_renders_as_its_payload(cat)
        assert_renders_as_its_payload(FinCat(cat.objects, cat.morphisms, cat.identity,
                                             cat.composition, name='"\ud800\n'))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(scwols, posets, groupoids.map(lambda g: g.category)), SEEDS)
    def test_drawn_stores(self, cat, seed):
        """Drawn categories, and their manifests loaded with shuffled
        entries and numbered ids."""
        assert_renders_as_its_payload(cat)
        assert_renders_as_its_payload(validate(numbered_manifest(cat, seed)))

    @pytest.mark.parametrize("seed", TWISTED_ACTION_SEEDS)
    def test_totals_and_quotients(self, seed):
        """Strict and pseudo totals, the homotopy colimit of a complex of
        groups and the quotient of an action."""
        assert_renders_as_its_payload(grothendieck(randgen.random_strict_diagram(Random(seed))).category)
        action = randgen.random_action(Random(seed))
        cplx = complex_of_groups(action).complex
        assert_renders_as_its_payload(grothendieck_pseudo(complex_to_pseudo_diagram(cplx)))
        assert_renders_as_its_payload(hocolim_groups(cplx))
        assert_renders_as_its_payload(quotient(action).category)

    def test_total_over_an_index_not_directly_finite(self):
        total = grothendieck(constant_diagram(split_idempotent(),
                                              zoo.one_object_category(cyclic_group(3)))).category
        assert total._plan.rows is not None
        assert_renders_as_its_payload(total)

    def test_empty_category(self):
        for cat in (zoo.discrete_category([]), validate({"objects": [], "morphisms": [],
                                                         "identity": {}, "compose": []})):
            assert_renders_as_its_payload(cat)

    def test_names_that_are_no_strings_go_to_json_dumps(self):
        """A hand-built category with a number for a name is written by the
        ``json.dumps`` fallback, which writes its payload."""
        cat = zoo.pushout_scwol()
        numbered = FinCat(cat.objects, cat.morphisms, cat.identity, cat.composition, name=7)
        assert manifest._dumps({"c": numbered}) == reference(
            {"c": manifest.category_payload(numbered)})

    def test_other_objects_raise_as_json_dumps(self):
        value = {"c": zoo.pushout_scwol(), "x": Fraction(1, 2)}
        with pytest.raises(TypeError, match="Object of type Fraction is not JSON serializable"):
            manifest._dumps(value)

    def test_one_swapped_cell_is_caught(self, monkeypatch):
        """Non-vacuity: a renderer that reads rows with two composites of
        one row swapped writes other bytes than the payload."""
        cat = product(zoo.parallel_pair_scwol(), split_idempotent())
        want = reference({"c": manifest.category_payload(cat)})
        rows = [dict(row) for row in cat._ends.rows]
        f, (g1, g2) = next((f, pair) for f, row in enumerate(rows)
                           for pair in itertools.combinations(row, 2)
                           if row[pair[0]] != row[pair[1]])
        rows[f][g1], rows[f][g2] = rows[f][g2], rows[f][g1]
        swapped = copy.copy(cat._ends)
        swapped.rows = rows
        monkeypatch.setattr(manifest, "_rows_of", lambda c: swapped)
        assert manifest._dumps({"c": cat}) != want

    @pytest.mark.parametrize("build", [
        lambda: grothendieck(randgen.random_strict_diagram(Random(TWISTED_ACTION_SEEDS[0]))).category,
        lambda: grothendieck_pseudo(complex_to_pseudo_diagram(twisted_complex(18))),
        lambda: hocolim_groups(twisted_complex(18)),
        lambda: validate(reference_category_payload(ZOO["product"]())),
    ], ids=["strict", "pseudo", "hocolim_groups", "loaded"])
    def test_writing_a_report_makes_no_records(self, build):
        """Writing a report that holds a total or a loaded category makes
        none of its records, lookup tables or table, and pins no composition
        rows on a total's plan."""
        cat = build()
        manifest._dumps({"category": cat, "objects": len(cat)})
        assert not {"composition", "morphisms", "_mor", "_hom"} & set(vars(cat))
        plan = vars(cat).get("_plan")
        assert plan is None or plan.rows is None


def holds_a_category(value) -> bool:
    if isinstance(value, FinCat):
        return True
    if isinstance(value, dict):
        return any(map(holds_a_category, value.values()))
    return isinstance(value, (list, tuple)) and any(map(holds_a_category, value))


@pytest.mark.parametrize("kind", sorted(MANIFESTS))
def test_serialize_gives_plain_data(kind):
    """``serialize`` expands every category to its payload; the manifest
    ``dump_file`` writes holds the categories themselves and is written to
    the same text."""
    value = MANIFESTS[kind]()
    data = manifest.serialize(kind, value)
    assert not holds_a_category(data)
    assert json.loads(json.dumps(data)) == data
    kept = manifest._manifest(kind, value)
    assert holds_a_category(kept) == (kind != "group")
    assert manifest._dumps(kept) == reference(data)
