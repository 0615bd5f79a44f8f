import json
from fractions import Fraction

import pytest

from eulcat import manifest, randgen, zoo
from eulcat.cli import main
from eulcat.errors import InvariantViolation
from eulcat.groupact import complex_of_groups, complex_to_pseudo_diagram
from eulcat.groups import cyclic_group
from eulcat.hocolim import bar_spectrum, builtin_spectrum, constant_diagram
from eulcat.ratlin import NoEulerCharacteristic

from helpers import equal_presentation


@pytest.fixture
def circle_action():
    return randgen.circle_action()


class TestRoundTrip:
    def assert_roundtrip(self, kind, value, same):
        blob = manifest.serialize(kind, value)
        blob = json.loads(json.dumps(blob))  # force plain JSON types
        kind2, value2 = manifest.parse(blob)
        assert kind2 == kind
        assert same(value, value2)
        assert manifest.serialize(kind, value2) == blob

    def test_category(self):
        self.assert_roundtrip("category", zoo.pushout_scwol(), equal_presentation)

    def test_group(self):
        def same(a, b):
            return a.labels == b.labels and a.table == b.table

        self.assert_roundtrip("group", cyclic_group(6), same)

    def test_diagram(self):
        d = constant_diagram(zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))

        def same(a, b):
            return (
                equal_presentation(a.index, b.index)
                and all(
                    equal_presentation(a.vertex[i], b.vertex[i]) for i in a.index.objects
                )
                and all(
                    dict(a.edge[m.name].mor_map) == dict(b.edge[m.name].mor_map)
                    for m in a.index.morphisms
                )
            )

        self.assert_roundtrip("diagram", d, same)

    def test_pseudo_diagram(self, circle_action):
        d = complex_to_pseudo_diagram(complex_of_groups(circle_action).complex)

        def same(a, b):
            return (
                equal_presentation(a.index, b.index)
                and all(dict(a.comp[k]) == dict(b.comp[k]) for k in a.comp)
                and all(dict(a.unit[i]) == dict(b.unit[i]) for i in a.unit)
            )

        self.assert_roundtrip("pseudo_diagram", d, same)

    def test_action(self, circle_action):
        def same(a, b):
            return (
                equal_presentation(a.space, b.space)
                and a.group.labels == b.group.labels
                and {g: dict(t) for g, t in a.on_objects.items()}
                == {g: dict(t) for g, t in b.on_objects.items()}
            )

        self.assert_roundtrip("action", circle_action, same)

    def test_complex(self, circle_action):
        cplx = complex_of_groups(circle_action).complex

        def same(a, b):
            return (
                equal_presentation(a.base, b.base)
                and {m: dict(h.mapping) for m, h in a.homs.items()}
                == {m: dict(h.mapping) for m, h in b.homs.items()}
                and dict(a.twists) == dict(b.twists)
            )

        self.assert_roundtrip("complex", cplx, same)

    def test_spectrum(self):
        def same(a, b):
            return equal_presentation(a.index, b.index) and dict(a.cells) == dict(b.cells)

        self.assert_roundtrip("spectrum", bar_spectrum(zoo.pushout_scwol()), same)

    def test_bad_kind_rejected(self):
        with pytest.raises(manifest.BadManifest) as info:
            manifest.parse({"schema": 1, "kind": "nope", "payload": {}})
        assert info.value.witness == {"kind": "nope"}

    def test_unknown_kind_has_no_manifest(self):
        with pytest.raises(manifest.BadManifest) as info:
            manifest._manifest("nope", zoo.terminal_category())
        assert (str(info.value), info.value.witness) == (
            "unknown manifest kind 'nope'", {"kind": "nope"})

    def test_a_json_array_is_no_manifest(self, tmp_path, capsys):
        data = [{"schema": 1, "kind": "category"}]
        with pytest.raises(manifest.BadManifest) as info:
            manifest.parse(data)
        assert (str(info.value), info.value.witness) == (
            "manifest must be a JSON object", {"type": "list"})
        path = tmp_path / "array.json"
        path.write_text(json.dumps(data))
        assert main(["--json", "validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: manifest must be a JSON object\n")

    def test_bad_schema_rejected(self):
        with pytest.raises(manifest.BadManifest) as info:
            manifest.parse({"schema": 99, "kind": "category", "payload": {}})
        assert info.value.witness == {"schema": 99}


def _edited(kind, value, edit):
    blob = json.loads(json.dumps(manifest.serialize(kind, value)))
    edit(blob["payload"])
    return blob


DIAGRAM = constant_diagram(zoo.pushout_scwol(), zoo.discrete_category(["x"]))
BAD_PAYLOADS = {
    "missing vertex": (lambda: _edited("diagram", DIAGRAM, lambda p: p["vertices"].pop("k")),
                       "no vertex category for index object 'k'", {"object": "k"}),
    "stray edge": (lambda: _edited("diagram", DIAGRAM,
                                   lambda p: p["edges"].update(zz=p["edges"]["id_j"])),
                   "edge functor for non-index morphism 'zz'", {"morphism": "zz"}),
    "stray edge key": (lambda: _edited("diagram", DIAGRAM,
                                       lambda p: p["edges"]["id_j"]["objects"].update(y="x")),
                       "edge 'id_j': object map key 'y' is not an object of discrete",
                       {"edge": "id_j", "object": "y"}),
    "stray hom": (lambda: _edited("complex", complex_of_groups(randgen.circle_action()).complex,
                                  lambda p: p["homs"].update(zz={})),
                  "structure homomorphism for non-base morphism 'zz'", {"morphism": "zz"}),
    "no payload": (lambda: {"schema": 1, "kind": "category"},
                   "manifest has no payload", {"key": "payload"}),
}


@pytest.mark.parametrize("build, message, witness", BAD_PAYLOADS.values(), ids=BAD_PAYLOADS.keys())
def test_bad_payload_names_its_entry(build, message, witness):
    with pytest.raises(manifest.BadManifest) as info:
        manifest.parse(build())
    assert (str(info.value), info.value.witness) == (message, witness)


def test_undecodable_file_names_its_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1,\n "kind": }')
    with pytest.raises(manifest.BadManifest) as info:
        manifest.load_file(str(path))
    assert info.value.witness == {"path": str(path), "line": 2, "column": 10}


def write(tmp_path, name, kind, value):
    path = tmp_path / name
    manifest.dump_file(str(path), kind, value)
    return str(path)


class TestCli:
    def test_chi_pushout(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", "category", zoo.pushout_scwol())
        assert main(["chi", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_weighting_parallel_pair(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", "category", zoo.parallel_pair_scwol())
        assert main(["weighting", path]) == 0
        assert capsys.readouterr().out.strip() == "j: -1, k: 1"

    def test_coweighting_flag(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", "category", zoo.parallel_pair_scwol())
        assert main(["weighting", "--co", path]) == 0
        assert capsys.readouterr().out.strip() == "j: 1, k: -1"

    def test_chil_monoid(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", "category", zoo.monoid_z2_mult())
        assert main(["chil", path]) == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_chi2_groupoid(self, tmp_path, capsys):
        path = write(
            tmp_path, "g.json", "category", zoo.one_object_category(cyclic_group(3))
        )
        assert main(["chi2", path]) == 0
        assert capsys.readouterr().out.strip() == "1/3"

    def test_classify(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", "category", zoo.pushout_scwol())
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "is_scwol: true" in out
        assert "is_groupoid: false" in out

    def test_paths(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", "category", zoo.pushout_scwol())
        assert main(["paths", path]) == 0
        out = capsys.readouterr().out
        assert "c: 3, 2" in out
        assert "j: 1, 2" in out

    def test_skeleton(self, tmp_path, capsys):
        fat = zoo.inflate(zoo.pushout_scwol(), {"j": 2, "k": 1, "l": 1})
        path = write(tmp_path, "f.json", "category", fat)
        assert main(["skeleton", path]) == 0
        assert "skeleton objects: j~0, k~0, l~0" in capsys.readouterr().out

    def test_validate_and_exit_codes(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", "category", zoo.pushout_scwol())
        assert main(["validate", path]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "kind": "category", "payload": {"objects": ["x"]}}')
        assert main(["validate", str(bad)]) == 2
        assert main(["validate", str(tmp_path / "missing.json")]) == 2

    def test_hocolim_of_diagram(self, tmp_path, capsys):
        d = constant_diagram(zoo.pushout_scwol(), zoo.terminal_category())
        path = write(tmp_path, "d.json", "diagram", d)
        assert main(["hocolim", path]) == 0
        out = capsys.readouterr().out
        assert "objects: 3" in out
        assert "chi_L: 1" in out

    def test_check_formula(self, tmp_path, capsys):
        d = constant_diagram(zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))
        path = write(tmp_path, "d.json", "diagram", d)
        assert main(["check-formula", path, "--invariant", "chiL"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "lhs (direct): 1/2" in out

    def test_check_formula_with_explicit_spectrum(self, tmp_path, capsys):
        d = constant_diagram(zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))
        dpath = write(tmp_path, "d.json", "diagram", d)
        spath = write(tmp_path, "s.json", "spectrum", builtin_spectrum("pushout"))
        assert main(["check-formula", dpath, "--spectrum", spath]) == 0

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_check_formula_with_a_spectrum_over_another_index(self, tmp_path, capsys, json_flag):
        d = constant_diagram(zoo.pushout_scwol(), zoo.terminal_category())
        dpath = write(tmp_path, "d.json", "diagram", d)
        spath = write(tmp_path, "s.json", "spectrum", builtin_spectrum("parallel_pair"))
        assert main([*json_flag, "check-formula", dpath, "--spectrum", spath]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: spectrum over A is no cell model over P: weighting equation fails at 'j'"
        ]

    def test_quotient_and_complex_and_hocolim_groups(self, tmp_path, capsys):
        action = randgen.circle_action()
        apath = write(tmp_path, "act.json", "action", action)
        assert main(["quotient", apath]) == 0
        capsys.readouterr()
        assert main(["complex-of-groups", apath]) == 0
        out = capsys.readouterr().out
        assert "order 1" in out and "order 2" in out
        cplx = complex_of_groups(action).complex
        cpath = write(tmp_path, "cplx.json", "complex", cplx)
        assert main(["hocolim-groups", cpath]) == 0
        assert "chi_L: 0" in capsys.readouterr().out

    def test_transport(self, tmp_path, capsys):
        from eulcat.groupact import ScwolAction

        z2 = cyclic_group(2)
        disc = zoo.discrete_category(["1", "2"])
        action = ScwolAction(
            z2,
            disc,
            {"0": {"1": "1", "2": "2"}, "1": {"1": "2", "2": "1"}},
            {
                "0": {"id_1": "id_1", "id_2": "id_2"},
                "1": {"id_1": "id_2", "id_2": "id_1"},
            },
        )
        path = write(tmp_path, "t.json", "action", action)
        assert main(["transport", path]) == 0
        out = capsys.readouterr().out
        assert "chi2: 1" in out and "chi: 1" in out

    def test_chi_theorems(self, tmp_path, capsys):
        path = write(tmp_path, "act.json", "action", randgen.circle_action())
        assert main(["chi-theorems", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_developability_exit_codes(self, tmp_path, capsys):
        from eulcat.groupact import one_arrow_complex
        from eulcat.groups import GroupHom, trivial_group

        one = trivial_group()
        z2 = cyclic_group(2)
        cplx = one_arrow_complex(one, z2, GroupHom(one, z2, {"0": "0"}))
        path = write(tmp_path, "c.json", "complex", cplx)
        assert main(["developability", path, "--candidate", "2,4"]) == 0
        capsys.readouterr()
        assert main(["developability", path, "--candidate", "2,4", "--candidate", "1,3"]) == 1
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" in out

    def test_haefliger(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", "category", zoo.pushout_scwol())
        assert (
            main(
                [
                    "haefliger",
                    path,
                    "--val", "j=1/2",
                    "--val", "k=1/3",
                    "--val", "l=1/5",
                ]
            )
            == 0
        )
        expected = Fraction(1, 3) + Fraction(1, 5) - Fraction(1, 2)
        assert capsys.readouterr().out.strip() == str(expected)

    def test_json_reports_match_human_numbers(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", "category", zoo.monoid_z2_mult())
        assert main(["chil", path]) == 0
        human = capsys.readouterr().out.strip()
        assert main(["--json", "chil", path]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["chi_L"] == human == "1/2"

    def test_json_weighting_values(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", "category", zoo.parallel_pair_scwol())
        assert main(["--json", "weighting", path]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["values"] == {"j": "-1", "k": "1"}
        assert blob["total"] == "0"

    @pytest.mark.parametrize(
        "name",
        ["intro-pushout", "z2-circle", "inclusion-exclusion", "transport-s3", "weightings"],
    )
    def test_demos_pass(self, name, capsys):
        assert main(["demo", name]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_unknown_demo(self, capsys):
        assert main(["demo", "nonsense"]) == 2


ONE_OBJECT = {
    "objects": ["x"],
    "morphisms": [{"id": "i", "source": "x", "target": "x"}],
    "identity": {"x": "i"},
    "compose": [["i", "i", "i"]],
}


# two parallel arrows f, g: j -> k, with (id_k, f) listed twice, the
# wrong composite first: a table keeping the last entry would accept it
TWO_ARROWS_PAIR_TWICE = {
    "objects": ["j", "k"],
    "morphisms": [{"id": "id_j", "source": "j", "target": "j"},
                  {"id": "id_k", "source": "k", "target": "k"},
                  {"id": "f", "source": "j", "target": "k"},
                  {"id": "g", "source": "j", "target": "k"}],
    "identity": {"j": "id_j", "k": "id_k"},
    "compose": [["id_j", "id_j", "id_j"], ["id_k", "id_k", "id_k"], ["f", "id_j", "f"],
                ["g", "id_j", "g"], ["id_k", "g", "g"], ["id_k", "f", "g"], ["id_k", "f", "f"]],
}


ONE_VERTEX = {"x": ONE_OBJECT}
TWO_POINTS = {
    "objects": ["x", "y"],
    "morphisms": [{"id": "id_x", "source": "x", "target": "x"},
                  {"id": "id_y", "source": "y", "target": "y"}],
    "identity": {"x": "id_x", "y": "id_y"},
    "compose": [["id_x", "id_x", "id_x"], ["id_y", "id_y", "id_y"]],
}
Z2 = {"elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]}
# Parts that must be lists but were read item by item: each of these once
# validated, as (i, i, i), objects x and y, Z/2 and the trivial group.
NOT_LISTS = {
    "category-compose-entry-str": ("category", {**ONE_OBJECT, "compose": ["iii"]},
                                   "compose entry 0 must be a list, not str"),
    "category-compose-dict": ("category", {**ONE_OBJECT, "compose": {"iii": 0}},
                              "compose must be a list, not dict"),
    "category-objects-str": ("category", {**TWO_POINTS, "objects": "xy"},
                             "objects must be a list, not str"),
    "category-morphisms-dict": ("category", {"objects": [], "morphisms": {}, "identity": {}},
                                "morphisms must be a list, not dict"),
    "group-elements-str": ("group", {"elements": "01", "table": ["01", "10"]},
                           "elements must be a list, not str"),
    "group-table-row-str": ("group", {**Z2, "table": ["01", "10"]},
                            "table row 0 must be a list, not str"),
    "group-table-dict": ("group", {"elements": ["0"], "table": {"0": 1}},
                         "table must be a list, not dict"),
}
IDENTITY_EDGE = {"i": {"objects": {"x": "x"}, "morphisms": {"i": "i"}}}


def _trivial_arrow_complex_payload() -> dict:
    from eulcat.groupact import one_arrow_complex
    from eulcat.groups import GroupHom, trivial_group

    one, other = trivial_group(), trivial_group()
    cplx = one_arrow_complex(one, other, GroupHom(one, other, {"0": "0"}))
    return manifest.serialize("complex", cplx)["payload"]


def _chain_complex_payload(twists) -> dict:
    """The trivial complex over 0 -a-> 1 -b-> 2 with its ``twists`` replaced:
    a twist read item by item from the string "ba0" would be ("b", "a", "0"),
    the one twist it needs."""
    from eulcat.groupact import constant_complex
    from eulcat.groups import trivial_group

    base = zoo.build_category(("0", "1", "2"), (("a", "0", "1"), ("b", "1", "2"), ("ba", "0", "2")),
                              {("b", "a"): "ba"}, name="chain3")
    payload = manifest.serialize("complex", constant_complex(base, trivial_group()))["payload"]
    return {**payload, "twists": twists}


def _without_local(payload: dict, x: str) -> dict:
    return {**payload, "local": {k: v for k, v in payload["local"].items() if k != x}}


# j -g-> k, each vertex the one-object category ONE_OBJECT, every edge the identity
ARROW_INDEX = {
    "objects": ["j", "k"],
    "morphisms": [{"id": "id_j", "source": "j", "target": "j"},
                  {"id": "id_k", "source": "k", "target": "k"},
                  {"id": "g", "source": "j", "target": "k"}],
    "identity": {"j": "id_j", "k": "id_k"},
    "compose": [["id_j", "id_j", "id_j"], ["id_k", "id_k", "id_k"], ["g", "id_j", "g"],
                ["id_k", "g", "g"]],
}


def _arrow_diagram_with_stray(kind: str, *stray) -> dict:
    """A valid diagram or pseudo diagram over ARROW_INDEX, with the last
    item of ``stray`` stored under the key path before it."""
    payload = {
        "index": ARROW_INDEX,
        "vertices": {"j": ONE_OBJECT, "k": ONE_OBJECT},
        "edges": {m: {"objects": {"x": "x"}, "morphisms": {"i": "i"}} for m in ("id_j", "id_k", "g")},
    }
    if kind == "pseudo_diagram":
        pairs = [("id_j", "id_j"), ("id_k", "id_k"), ("g", "id_j"), ("id_k", "g")]
        payload.update(comp=[[v, u, {"x": "i"}] for v, u in pairs],
                       unit={"j": {"x": "i"}, "k": {"x": "i"}})
    *keys, key, value = stray
    table = payload
    for k in keys:
        table = table[k]
    table[key] = value
    return payload


# A stray edge-map key used to fail strictness with a misleading message, or
# pass in a pseudo diagram and be dropped from its canonical form (or fail as
# a malformed payload when its image named nothing); stray edges and
# vertices were ignored.
STRAY_DIAGRAM_NAMES = {
    "object-key-to-object": (("edges", "g", "objects", "ghost", "x"),
                             "edge 'g': object map key 'ghost' is not an object of vertex[j]"),
    "object-key-to-nothing": (("edges", "g", "objects", "ghost", "nosuch"),
                              "edge 'g': object map key 'ghost' is not an object of vertex[j]"),
    "morphism-key-to-morphism": (("edges", "g", "morphisms", "ghost", "i"),
                                 "edge 'g': morphism map key 'ghost' is not a morphism of vertex[j]"),
    "morphism-key-to-nothing": (("edges", "g", "morphisms", "ghost", "nosuch"),
                                "edge 'g': morphism map key 'ghost' is not a morphism of vertex[j]"),
    "edge-for-no-morphism": (("edges", "h", {"objects": {"x": "x"}, "morphisms": {"i": "i"}}),
                             "edge functor for non-index morphism 'h'"),
    "vertex-for-no-object": (("vertices", "q", ONE_OBJECT),
                             "vertex category for non-index object 'q'"),
}


def _stray_hom_key_complex_payload() -> dict:
    """Z/2 -> Z/2 sending both elements to 0, with a third key "ghost": the
    stray image used to count towards injectivity, so the complex passed."""
    payload = _trivial_arrow_complex_payload()
    z2 = manifest.group_payload(cyclic_group(2))
    payload["local"] = {"0": z2, "1": z2}
    payload["homs"] = {"a": {"0": "0", "1": "0", "ghost": "1"}}
    return payload


def _with_stray(payload: dict, table: str, key: str, value) -> dict:
    """``payload`` with ``table[key] = value`` added; each was ignored."""
    return {**payload, table: {**payload[table], key: value}}


CIRCLE_ACTION = manifest.serialize("action", randgen.circle_action())["payload"]


@pytest.mark.parametrize(
    "kind, payload, named",
    [
        ("category", {**ONE_OBJECT, "identity": []}, "malformed category description"),
        ("category", TWO_ARROWS_PAIR_TWICE,
         "pair ('id_k', 'f') is listed more than once in compose"),
        ("diagram", {"index": ONE_OBJECT, "vertices": [], "edges": {}}, "malformed diagram payload"),
        ("spectrum", {"index": ONE_OBJECT, "cells": []}, "malformed spectrum payload"),
        ("spectrum", {"index": ONE_OBJECT, "cells": {"x": ["one"]}}, "malformed spectrum payload"),
        (
            "pseudo_diagram",
            {"index": ONE_OBJECT, "vertices": ONE_VERTEX, "edges": IDENTITY_EDGE,
             "comp": [["i", "i", {"x": "i"}]], "unit": {"q": {"x": "i"}}},
            "unit entry for non-index object 'q'",
        ),
        (
            "pseudo_diagram",
            {"index": ONE_OBJECT, "vertices": ONE_VERTEX, "edges": IDENTITY_EDGE,
             "comp": [["i", "i", {"x": "nosuch"}]], "unit": {"x": {"x": "i"}}},
            "comp at ('i', 'i'): component at 'x' is not a morphism of vertex[x]",
        ),
        (
            "pseudo_diagram",
            {"index": ONE_OBJECT, "vertices": ONE_VERTEX, "edges": IDENTITY_EDGE,
             "comp": [["i", "i", {"x": "i", "ghost": "nosuch"}]], "unit": {"x": {"x": "i"}}},
            "comp at ('i', 'i'): component key 'ghost' is not an object of vertex[x]",
        ),
        (
            "pseudo_diagram",
            {"index": ONE_OBJECT, "vertices": ONE_VERTEX, "edges": IDENTITY_EDGE,
             "comp": [["i", "i", {"x": "i"}]], "unit": {"x": {}}},
            "unit at 'x': no component at 'x'",
        ),
        (
            "complex",
            _without_local(_trivial_arrow_complex_payload(), "1"),
            "no local group for object '1'",
        ),
        ("complex", _stray_hom_key_complex_payload(), "map key 'ghost' is not an element of Z2"),
        ("complex", _with_stray(_trivial_arrow_complex_payload(), "homs", "ghost", {"0": "0"}),
         "structure homomorphism for non-base morphism 'ghost'"),
        ("complex", _with_stray(_trivial_arrow_complex_payload(), "local", "q",
                                manifest.group_payload(cyclic_group(2))),
         "local group for non-base object 'q'"),
        ("action", _with_stray(CIRCLE_ACTION, "object_action", "ghost", {"x": "y"}),
         "action row 'ghost' is not an element of Z2"),
        ("action", _with_stray(CIRCLE_ACTION, "morphism_action", "ghost", {"a1": "a1"}),
         "action row 'ghost' is not an element of Z2"),
        *[
            (kind, _arrow_diagram_with_stray(kind, *stray), named)
            for stray, named in STRAY_DIAGRAM_NAMES.values()
            for kind in ("diagram", "pseudo_diagram")
        ],
        *NOT_LISTS.values(),
        ("complex", _chain_complex_payload(["ba0"]), "twists entry 0 must be a list, not str"),
        ("complex", _chain_complex_payload({"ba0": 1}), "twists must be a list, not dict"),
        ("pseudo_diagram",
         {"index": ONE_OBJECT, "vertices": ONE_VERTEX, "edges": IDENTITY_EDGE,
          "comp": ["iix"], "unit": {"x": {"x": "i"}}},
         "comp entry 0 must be a list, not str"),
        ("pseudo_diagram",
         {"index": ONE_OBJECT, "vertices": ONE_VERTEX, "edges": IDENTITY_EDGE,
          "comp": {"iix": {"x": "i"}}, "unit": {"x": {"x": "i"}}},
         "comp must be a list, not dict"),
    ],
    ids=["category-identity-list", "category-pair-listed-twice", "diagram-vertices-list",
         "spectrum-cells-list", "spectrum-cell-not-integer", "pseudo-unit-non-index-object",
         "pseudo-component-names-no-morphism", "pseudo-component-key-names-no-object",
         "pseudo-component-missing", "complex-missing-local", "complex-hom-stray-key",
         "complex-hom-for-no-morphism", "complex-local-for-no-object",
         "action-object-row-for-no-element", "action-morphism-row-for-no-element",
         *[f"{kind}-stray-{case}" for case in STRAY_DIAGRAM_NAMES
           for kind in ("diagram", "pseudo_diagram")],
         *NOT_LISTS, "complex-twists-entry-str", "complex-twists-dict", "pseudo-comp-entry-str",
         "pseudo-comp-dict"],
)
def test_malformed_payload_exits_2_with_one_error_line(tmp_path, capsys, kind, payload, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "kind": kind, "payload": payload}))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        captured.err.strip()
    ]
    assert named in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind, payload, named", NOT_LISTS.values(), ids=list(NOT_LISTS))
def test_part_that_is_no_list_is_malformed(kind, payload, named):
    with pytest.raises(manifest.ValidationError) as exc:
        manifest.parse({"schema": 1, "kind": kind, "payload": payload})
    if kind == "category":
        assert str(exc.value) == f"C: malformed category description ({named})"
        assert exc.value.witness == {"cause": named}
    else:
        assert str(exc.value) == f"malformed group payload ({named})"
        assert exc.value.witness == {"kind": "group", "error": named}


@pytest.mark.parametrize("kind, payload", [
    ("category", ONE_OBJECT), ("category", TWO_POINTS), ("group", Z2),
    ("category", {**ONE_OBJECT, "objects": [1], "morphisms": [{"id": 2, "source": 1, "target": 1}],
                  "identity": {"1": 2}, "compose": [[2, 2, 2]]}),
], ids=["one-object", "two-points", "Z2", "number-ids"])
def test_lists_are_accepted(kind, payload):
    assert manifest.parse({"schema": 1, "kind": kind, "payload": payload})[0] == kind


@pytest.mark.parametrize("counts", [[1, 2.9], [True], ["1"], "1"],
                         ids=["float", "bool", "numeric-string", "bare-string"])
def test_spectrum_counts_that_are_no_integers_are_rejected(tmp_path, capsys, counts):
    """``int(v)`` once read 2.9 as 2, true as 1 and the string "1" as (1,)."""
    payload = manifest.serialize("spectrum", bar_spectrum(zoo.pushout_scwol()))["payload"]
    payload["cells"]["j"] = counts
    data = {"schema": 1, "kind": "spectrum", "payload": payload}
    with pytest.raises(manifest.BadManifest) as info:
        manifest.parse(data)
    assert str(info.value) == (
        "malformed spectrum payload (cell counts at 'j' must be a list of integers)")
    assert info.value.witness == {"kind": "spectrum", "object": "j"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["--json", "validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {info.value}\n"


@pytest.mark.parametrize("kind", ["diagram", "pseudo_diagram"])
@pytest.mark.parametrize(
    "vertices, edges, missing",
    [
        ({}, IDENTITY_EDGE, "no vertex category for index object 'x'"),
        (ONE_VERTEX, {}, "no edge functor for morphism 'i'"),
    ],
    ids=["missing-vertex", "missing-edge"],
)
def test_missing_diagram_part_is_named(tmp_path, capsys, kind, vertices, edges, missing):
    payload = {"index": ONE_OBJECT, "vertices": vertices, "edges": edges}
    if kind == "pseudo_diagram":
        payload.update(comp=[["i", "i", {"x": "i"}]], unit={"x": {"x": "i"}})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "kind": kind, "payload": payload}))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and missing in errors[0]
    assert "Traceback" not in captured.err


def test_hocolim_groups_rejects_a_stray_homomorphism_key(tmp_path, capsys):
    """The stray image made a non-injective map look injective, and
    hocolim-groups printed chi_L 1/2."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "kind": "complex",
                                "payload": _stray_hom_key_complex_payload()}))
    assert main(["hocolim-groups", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: map key 'ghost' is not an element of Z2"


@pytest.mark.parametrize(
    "content", [None, b"\xff\xfe{}", b"[" * 200000], ids=["directory", "not-utf8", "deeply-nested"]
)
def test_unreadable_path_exits_2_with_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "m.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        captured.err.strip()
    ]
    assert str(path) in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["haefliger", "p.json", "--val", "j=1/0", "--val", "k=1", "--val", "l=1"], "'j=1/0'"),
        (["haefliger", "p.json", "--val", "zz=1", "--val", "j=1", "--val", "k=1", "--val", "l=1"],
         "'zz=1'"),
        (["paths", "p.json", "--max-dim", "0"], "longer than the requested cap 0"),
    ],
    ids=["zero-denominator", "unknown-object", "max-dim-below-depth"],
)
def test_bad_option_value_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv, named):
    write(tmp_path, "p.json", "category", zoo.pushout_scwol())
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        captured.err.strip()
    ]
    assert named in captured.err
    assert "not a scwol" not in captured.err


@pytest.mark.parametrize(
    "error, code, out, err",
    [
        (NoEulerCharacteristic, 0, "objects: 3\nmorphisms: 5\nchi_L: undefined\n", ""),
        (InvariantViolation, 2, "", "error: sums disagree\n"),
    ],
    ids=["no-euler-characteristic", "library-fault"],
)
def test_hocolim_reads_only_a_missing_chi_as_undefined(tmp_path, monkeypatch, capsys,
                                                       error, code, out, err):
    """A failed cross-check inside chi_L is a library fault, not an
    undefined Euler characteristic: it exits 2 with one error line."""
    from eulcat import cli

    def raising(cat):
        raise error("sums disagree")

    path = write(tmp_path, "d.json", "diagram",
                 constant_diagram(zoo.pushout_scwol(), zoo.terminal_category()))
    monkeypatch.setattr(cli, "chi_L", raising)
    assert main(["hocolim", path]) == code
    assert capsys.readouterr() == (out, err)


def test_commands_parser_and_readme_name_the_same_subcommands():
    import argparse
    from pathlib import Path

    from eulcat.cli import COMMANDS, build_parser

    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Subcommands:", 1)[1].split("```text", 1)[1].split("```", 1)[0]
    assert list(COMMANDS) == list(subparsers.choices) == block.split()


class TestParserReuse:
    """``main`` reuses one parser per process; no option value may carry
    over from one call to the next."""

    def test_one_parser_per_process(self):
        from eulcat.cli import _parser, build_parser

        assert _parser() is _parser()
        assert build_parser() is not build_parser()

    def test_candidates_do_not_leak(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", "complex", complex_of_groups(randgen.circle_action()).complex)
        assert main(["--json", "developability", path, "--candidate", "1,2"]) == 1
        assert len(json.loads(capsys.readouterr().out)["candidates"]) == 1
        assert main(["--json", "developability", path]) == 0
        assert json.loads(capsys.readouterr().out)["candidates"] == []

    def test_values_do_not_leak(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", "category", zoo.pushout_scwol())
        vals = ["--val", "j=1", "--val", "k=1", "--val", "l=1"]
        assert main(["haefliger", path, *vals]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["haefliger", path]) == 2
        assert "no local value supplied" in capsys.readouterr().err

    def test_json_flag_does_not_stick(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", "category", zoo.pushout_scwol())
        assert main(["--json", "chi", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"chi": "1"}
        assert main(["chi", path]) == 0
        assert capsys.readouterr().out == "1\n"
