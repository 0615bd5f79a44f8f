"""The one JSON writer, ``manifest._dumps``, against ``json.dumps``.

``_dumps(v)`` must equal ``json.dumps(v, indent=2, sort_keys=True)`` byte for
byte on every JSON value, and raise the same error where json.dumps does.
``dump_file`` must write what ``json.dump`` with those options wrote, plus a
newline, for every manifest kind.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulcat import manifest, randgen, zoo
from eulcat.groupact import complex_of_groups, complex_to_pseudo_diagram
from eulcat.groups import cyclic_group
from eulcat.hocolim import bar_spectrum, constant_diagram

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


@settings(max_examples=150, deadline=None)
@given(json_values)
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
