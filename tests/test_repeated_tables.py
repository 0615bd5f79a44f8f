"""One manifest load checks each repeated table once.

Vertex categories, local groups, edge functors and structure homomorphisms
that repeat in a manifest are checked on their first copy; a later equal
copy shares the result under its own name.  These tests load drawn diagrams
and complexes with repeated tables both ways, deduplicated and with every
copy checked in full (``helpers.reference_*``), and require the same
values, the same ``--json`` bytes and the same rejections; they also count
the full checks and comparisons that a load makes.
"""

import contextlib
import io
import json
import os
import tempfile
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import fincat, manifest, randgen, zoo
from eulcat.cli import main
from eulcat.errors import EulcatError
from eulcat.groupact import complex_of_groups, complex_to_pseudo_diagram, trivial_action
from eulcat.groups import FinGroup, cyclic_group, symmetric_group
from eulcat.hocolim import StrictDiagram, constant_diagram
from helpers import (
    monoid_z2_mult,
    reference_complex_from_payload,
    reference_diagram_parts,
    reference_pseudo_diagram_from_payload,
)
from strategies import SEEDS, actions, groupoids, pseudo_diagrams, scwols, strict_diagrams

small_groups = SEEDS.map(lambda s: randgen.random_group(Random(s), 6))
# a group fixing every object: the same local group (and vertex) everywhere
trivial_complexes = st.tuples(small_groups, scwols).map(
    lambda t: complex_of_groups(trivial_action(*t)).complex)
# a free action over the cone with a fixed apex: G there, trivial elsewhere
free_cone_complexes = st.tuples(small_groups, st.integers(2, 5)).map(
    lambda t: complex_of_groups(randgen.cone_action(
        randgen.induced_free_action(t[0], zoo.polygon_scwol(t[1])))).complex)
complexes = st.one_of(trivial_complexes, free_cone_complexes,
                      actions.map(lambda a: complex_of_groups(a).complex))
repeated_pseudo = st.one_of(pseudo_diagrams, complexes.map(complex_to_pseudo_diagram))
repeated_strict = st.one_of(
    strict_diagrams,
    st.tuples(scwols, st.one_of(small_groups.map(zoo.one_object_category),
                                groupoids.map(lambda g: g.category),
                                st.just(monoid_z2_mult()))).map(lambda t: constant_diagram(*t)),
)

READERS = {
    "diagram": lambda p: StrictDiagram(*reference_diagram_parts(p)),
    "pseudo_diagram": reference_pseudo_diagram_from_payload,
    "complex": reference_complex_from_payload,
}
SUBCOMMANDS = {
    "diagram": ("validate", "hocolim", "check-formula"),
    "pseudo_diagram": ("validate", "hocolim", "check-formula"),
    "complex": ("validate", "hocolim-groups", "developability"),
}


def renamed(kind: str, value, rng: Random) -> dict:
    """The payload of ``value`` as a JSON decoder gives it, with its own name
    for each vertex or local group and, for some vertices, the identity map
    in another order."""
    payload = json.loads(json.dumps(manifest.serialize(kind, value)["payload"]))
    parts = payload["local"] if kind == "complex" else payload["vertices"]
    for k, part in enumerate(parts.values()):
        part["name"] = f"copy{k}"
        if "identity" in part and type(part["identity"]) is dict and rng.random() < 0.5:
            part["identity"] = dict(reversed(list(part["identity"].items())))
    return payload


def assert_same_category(a, b) -> None:
    assert (a.name, a.objects, a.morphism_names()) == (b.name, b.objects, b.morphism_names())
    assert list(a.identity.items()) == list(b.identity.items())
    ra, rb = a._ends, b._ends
    assert (ra.rows, ra.order, ra.src, ra.tgt, ra.ident, ra.inv) == \
        (rb.rows, rb.order, rb.src, rb.tgt, rb.ident, rb.inv)
    assert a._directly_finite == b._directly_finite
    assert list(a.composition.items()) == list(b.composition.items())


def assert_same_group(a: FinGroup, b: FinGroup) -> None:
    assert (a.name, a.labels, a.table, a.identity) == (b.name, b.labels, b.table, b.identity)
    assert (a._index, a._inverse, a._gens) == (b._index, b._inverse, b._gens)


def assert_same_load(kind: str, got, want) -> None:
    """Every part of two loads of one payload equal, and each copy its own
    object."""
    if kind == "complex":
        assert_same_category(got.base, want.base)
        assert list(got.local) == list(want.local)
        for x in got.local:
            assert_same_group(got.local[x], want.local[x])
        assert len({id(g) for g in got.local.values()}) == len(got.local)
        for m, hom in got.homs.items():
            assert list(hom.mapping.items()) == list(want.homs[m].mapping.items())
            src, tgt = got.base.source(m), got.base.target(m)
            assert hom.source is got.local[src] and hom.target is got.local[tgt]
        assert got.twists == want.twists
    else:
        assert_same_category(got.index, want.index)
        assert list(got.vertex) == list(want.vertex)
        for i in got.vertex:
            assert_same_category(got.vertex[i], want.vertex[i])
        assert len({id(c) for c in got.vertex.values()}) == len(got.vertex)
        for m, x, y in got.index._arrows():
            fun, ref = got.edge[m], want.edge[m]
            assert list(fun.obj_map.items()) == list(ref.obj_map.items())
            assert list(fun.mor_map.items()) == list(ref.mor_map.items())
            assert fun.source is got.vertex[x] and fun.target is got.vertex[y]
        if kind == "pseudo_diagram":
            assert (got.comp, got.unit) == (want.comp, want.unit)
    assert manifest._dumps(manifest._manifest(kind, got)) == \
        manifest._dumps(manifest._manifest(kind, want))


def run_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_same_cli(kind: str, payload: dict) -> None:
    """Every ``--json`` subcommand on the manifest prints the same bytes and
    exits the same way when every copy is checked in full."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "kind": kind, "payload": payload}, fh)
        for sub in SUBCOMMANDS[kind]:
            got = run_cli("--json", sub, path)
            reader = (manifest._CODECS[kind][0], READERS[kind])
            with mock.patch.dict(manifest._CODECS, {kind: reader}):
                want = run_cli("--json", sub, path)
            assert got == want, sub


def parsed(kind: str, payload: dict):
    return manifest.parse({"schema": 1, "kind": kind, "payload": payload})[1]


class TestAgainstEveryCopyChecked:
    @settings(max_examples=60, deadline=None)
    @given(repeated_pseudo, SEEDS)
    def test_pseudo_diagrams(self, d, seed):
        payload = renamed("pseudo_diagram", d, Random(seed))
        got, want = parsed("pseudo_diagram", payload), READERS["pseudo_diagram"](payload)
        assert_same_load("pseudo_diagram", got, want)
        assert_same_cli("pseudo_diagram", payload)

    @settings(max_examples=50, deadline=None)
    @given(repeated_strict, SEEDS)
    def test_strict_diagrams(self, d, seed):
        payload = renamed("diagram", d, Random(seed))
        got, want = parsed("diagram", payload), READERS["diagram"](payload)
        assert_same_load("diagram", got, want)
        assert_same_cli("diagram", payload)

    @settings(max_examples=60, deadline=None)
    @given(complexes, SEEDS)
    def test_complexes(self, cplx, seed):
        payload = renamed("complex", cplx, Random(seed))
        got, want = parsed("complex", payload), READERS["complex"](payload)
        assert_same_load("complex", got, want)
        assert_same_cli("complex", payload)

    def test_the_copies_share_one_check(self):
        """Non-vacuity: over a trivial action every vertex shares the rows of
        the first and every local group its index; the maps repeat too."""
        cplx = complex_of_groups(trivial_action(symmetric_group(3),
                                                zoo.cone(zoo.polygon_scwol(4)))).complex
        payload = renamed("complex", cplx, Random(0))
        loaded = parsed("complex", payload)
        assert len({id(g._index) for g in loaded.local.values()}) == 1
        assert len({g.name for g in loaded.local.values()}) == len(loaded.local) == 9
        d = parsed("pseudo_diagram", renamed("pseudo_diagram", complex_to_pseudo_diagram(cplx),
                                             Random(0)))
        assert len({id(c._ends) for c in d.vertex.values()}) == 1
        assert len({c.name for c in d.vertex.values()}) == len(d.vertex) == 9


def broken_copy(k: int) -> tuple[dict, str]:
    """The pseudo payload of Z3 acting trivially on a cone over a 4-gon,
    whose last vertex differs from the others in compose entry k only, and
    that vertex's index object."""
    cplx = complex_of_groups(trivial_action(cyclic_group(3), zoo.cone(zoo.polygon_scwol(4))))
    payload = renamed("pseudo_diagram", complex_to_pseudo_diagram(cplx.complex), Random(0))
    last = list(payload["vertices"])[-1]
    vertex = payload["vertices"][last]
    vertex["name"] = "the broken copy"
    g, f, gf = vertex["compose"][k]
    vertex["compose"][k] = [g, f, next(m["id"] for m in vertex["morphisms"] if m["id"] != gf)]
    return payload, last


def outcome(fn, *args):
    """None on success, else the class, message and witness of the failure."""
    try:
        fn(*args)
    except EulcatError as exc:
        return type(exc), str(exc), exc.witness
    return None


class TestStillChecked:
    @pytest.mark.parametrize("k", [0, 4, 8])
    def test_a_copy_that_differs_in_one_entry_is_rejected(self, k, tmp_path):
        payload, last = broken_copy(k)
        got = outcome(parsed, "pseudo_diagram", payload)
        assert got is not None and "the broken copy" in got[1]
        assert got == outcome(reference_pseudo_diagram_from_payload, payload)
        assert got == outcome(fincat.validate, payload["vertices"][last], f"vertex[{last}]")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "kind": "pseudo_diagram", "payload": payload}))
        code, out, err = run_cli("--json", "hocolim", str(path))
        assert (code, out, err) == (2, "", f"error: {got[1]}\n")

    @pytest.mark.parametrize("image", [{"0": "0", "1": "2", "2": "1"}, {"0": "0", "1": "1", "2": "1"}],
                             ids=["automorphism", "no-homomorphism"])
    @pytest.mark.parametrize("kind", ["diagram", "complex"])
    def test_a_later_map_between_the_same_tables_is_checked(self, kind, image):
        """The last edge functor or structure homomorphism between two copies
        of Z3 has another map than the earlier ones: it is checked, and
        loads or fails as when every map is checked."""
        z3, index = cyclic_group(3), zoo.polygon_scwol(2)
        if kind == "complex":
            payload = renamed(kind, complex_of_groups(trivial_action(z3, index)).complex, Random(0))
            payload["homs"]["t1"] = image
        else:
            d = constant_diagram(index, zoo.one_object_category(z3))
            payload = renamed(kind, d, Random(0))
            payload["edges"]["t1"]["morphisms"] = image
        got = outcome(parsed, kind, payload)
        assert got == outcome(READERS[kind], payload)
        if len(set(image.values())) < 3:
            assert got is not None
        else:
            assert got is None
            assert_same_load(kind, parsed(kind, payload), READERS[kind](payload))

    @pytest.mark.parametrize("ids", [["1", 1, 1.0, True], [1, 1.0, True], [True, 1, "1"]],
                             ids=["str-first", "int-first", "bool-first"])
    def test_ids_equal_under_eq_are_each_checked(self, ids, monkeypatch):
        """``1 == 1.0 == True``, yet they name morphisms "1", "1.0" and
        "True": a copy with other than str names is checked in full, and an
        equal one is never read as a copy of it."""
        loads = []
        real = fincat._load
        monkeypatch.setattr(fincat, "_load", lambda *a: loads.append(1) or real(*a))
        vertices = {
            f"i{k}": {"objects": ["*"], "morphisms": [{"id": x, "source": "*", "target": "*"}],
                      "identity": {"*": x}, "compose": [[x, x, x]]}
            for k, x in enumerate(ids)
        }
        index = manifest.category_payload(zoo.discrete_category(list(vertices)))
        edges = {index["identity"][i]: {"objects": {"*": "*"}, "morphisms": {str(x): str(x)}}
                 for i, x in zip(vertices, ids)}
        d = parsed("diagram", {"index": index, "vertices": vertices, "edges": edges})
        assert len(loads) == 1 + len(ids)
        assert [d.vertex[i].morphism_names() for i in vertices] == [(str(x),) for x in ids]

    @pytest.mark.parametrize("elements", [[0, 1.0], [False, True]], ids=["float", "bool"])
    def test_group_elements_equal_under_eq_are_each_checked(self, elements, monkeypatch):
        counted = []
        real = FinGroup.__post_init__
        monkeypatch.setattr(FinGroup, "__post_init__", lambda g: counted.append(1) or real(g))
        z2 = {"elements": [0, 1], "table": [[0, 1], [1, 0]]}
        copy = {"elements": elements, "table": [[elements[0], elements[1]],
                                                [elements[1], elements[0]]]}
        assert copy == z2
        seen: dict = {}
        got = [manifest._group_once(p, seen) for p in (z2, copy, z2, copy)]
        assert len(counted) == 4
        assert [g.labels for g in got] == [("0", "1"), tuple(map(str, elements))] * 2

    @pytest.mark.parametrize("field, first, copy", [
        ("table", [[0, 1], [1, 0]], [[0, 1.0], [1.0, 0]]),
        ("table", [[0, 1], [1, 0]], [[False, True], [True, False]]),
        ("identity", 0, False),
        ("identity", 0, 0.0),
    ], ids=["float-cell", "bool-cell", "bool-identity", "float-identity"])
    def test_group_cells_equal_under_eq_are_each_checked(self, field, first, copy):
        """Elements named by str, cells or identity not: a copy equal to the
        first under ``==`` is checked in full, and fails as it does alone."""
        z2 = {"elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]], field: first}
        other = {**z2, field: copy}
        assert other == z2 and outcome(manifest.group_from_payload, z2) is None
        seen: dict = {}
        manifest._group_once(z2, seen)
        got = outcome(manifest._group_once, other, seen)
        assert got is not None and got == outcome(manifest.group_from_payload, other)

    def test_a_hostile_manifest_makes_one_comparison_per_payload(self, monkeypatch):
        """Vertices that agree up to their last entry: each is compared with
        the first under its key once, and checked in full once."""
        n, cat = 40, zoo.one_object_category(cyclic_group(7))
        base = manifest.category_payload(cat)
        last = len(base["compose"]) - 1
        vertices = {}
        for k in range(n):
            compose = [list(e) for e in base["compose"]]
            if k:  # a valid table that differs from the first at its end
                compose[k - 1], compose[last] = compose[last], compose[k - 1]
            vertices[f"i{k}"] = {**base, "name": f"v{k}", "compose": compose}
        index = manifest.category_payload(zoo.discrete_category(list(vertices)))
        maps = {"objects": {"*": "*"}, "morphisms": {m: m for m in cat.morphism_names()}}
        edges = {index["identity"][i]: maps for i in vertices}
        calls = {"compare": 0, "load": 0}
        real_same, real_load = manifest._same_table, fincat._load

        def same(*args):
            calls["compare"] += 1
            return real_same(*args)

        def load(*args):
            calls["load"] += 1
            return real_load(*args)

        monkeypatch.setattr(manifest, "_same_table", same)
        monkeypatch.setattr(fincat, "_load", load)
        d = parsed("diagram", {"index": index, "vertices": vertices, "edges": edges})
        assert calls == {"compare": n - 1, "load": 1 + n}
        assert len({id(c._ends) for c in d.vertex.values()}) == n


class TestStrMap:
    def test_a_json_map_is_read_as_it_is(self):
        """Every key and value of a JSON-loaded map is a str: the load keeps
        the decoder's dicts as the edges' maps, with no copy."""
        d = constant_diagram(zoo.polygon_scwol(2), zoo.one_object_category(cyclic_group(3)))
        payload = renamed("diagram", d, Random(0))
        raw = payload["edges"]["t1"]
        assert manifest._str_map(raw["morphisms"]) is raw["morphisms"]
        fun = parsed("diagram", payload).edge["t1"]
        assert fun.obj_map is raw["objects"] and fun.mor_map is raw["morphisms"]

    @pytest.mark.parametrize("raw, want", [
        ({1: "a"}, {"1": "a"}), ({"a": 1.0}, {"a": "1.0"}), ({True: True}, {"True": "True"}),
        ({"a": "b", "c": 1}, {"a": "b", "c": "1"}),
    ], ids=["int-key", "float-value", "bool", "last-value"])
    def test_other_ids_are_copied_as_their_str(self, raw, want):
        got = manifest._str_map(raw)
        assert got is not raw and got == want
        assert list(map(type, [*got, *got.values()])) == [str] * 2 * len(want)

    def test_a_map_of_numeric_ids_loads_as_its_str(self):
        """An edge map whose ids are JSON numbers reads as the map of their
        str names, and the load keeps the copy."""
        d = constant_diagram(zoo.polygon_scwol(2), zoo.one_object_category(cyclic_group(3)))
        payload = renamed("diagram", d, Random(0))
        raw = payload["edges"]["t1"]["morphisms"]
        assert set(raw) == {"0", "1", "2"}
        numeric = {int(k): int(v) for k, v in raw.items()}
        payload["edges"]["t1"]["morphisms"] = numeric
        fun = parsed("diagram", payload).edge["t1"]
        assert fun.mor_map is not numeric and fun.mor_map == raw


Z2_PAYLOAD = {"name": "Z2", "elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]],
              "identity": "0"}


class TestDeclaredIdentity:
    def test_a_wrong_declared_identity_is_rejected(self, tmp_path):
        bad = {**Z2_PAYLOAD, "identity": "1"}
        with pytest.raises(manifest.BadManifest) as info:
            manifest.group_from_payload(bad)
        assert str(info.value) == "declared identity '1' is not the identity of the table"
        assert info.value.witness == {"identity": "1", "table_identity": "0"}
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"schema": 1, "kind": "group", "payload": bad}))
        code, out, err = run_cli("--json", "validate", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {info.value}"]

    def test_a_repeated_local_group_with_a_wrong_identity_is_rejected(self, tmp_path):
        """The second copy of a repeated local group declares another
        identity: it is no copy, and its own check rejects it."""
        cplx = complex_of_groups(trivial_action(cyclic_group(2), zoo.polygon_scwol(2))).complex
        payload = renamed("complex", cplx, Random(0))
        second = list(payload["local"])[1]
        payload["local"][second]["identity"] = "1"
        want = ("declared identity '1' is not the identity of the table",
                {"identity": "1", "table_identity": "0"})
        for load in (lambda: parsed("complex", payload),
                     lambda: reference_complex_from_payload(payload)):
            with pytest.raises(manifest.BadManifest) as info:
                load()
            assert (str(info.value), info.value.witness) == want
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema": 1, "kind": "complex", "payload": payload}))
        code, out, err = run_cli("--json", "hocolim-groups", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {want[0]}"]


def test_no_cache_outlives_a_load():
    """Two loads of one manifest share nothing: each checks its tables."""
    payload = renamed("complex", complex_of_groups(trivial_action(
        cyclic_group(3), zoo.polygon_scwol(3))).complex, Random(0))
    a, b = parsed("complex", payload), parsed("complex", payload)
    assert len({id(g._index) for g in a.local.values()}) == 1
    assert {id(g._index) for g in a.local.values()}.isdisjoint(
        id(g._index) for g in b.local.values())
