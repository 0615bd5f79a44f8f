"""A category manifest is read into integer arrays, with its records and
name lookups made on first read.

``fincat.validate`` interns the ids into index arrays and checks the
entries into ``fincat._Rows``; the category it returns (``fincat._Loaded``)
makes its ``Morphism`` records, the lookup tables and the name-keyed table
only when they are read.  The first tests compare every verdict with the
record-level reader it replaced (``helpers.reference_validate``): class,
message and witness on manifests with one fault each, and the eager
``FinCat`` on lawful ones.  The others pin what stays unmade.
"""

import contextlib
import copy
import io
import os
import tempfile
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import cli, fincat, groupact, manifest, randgen, ratlin, zoo
from eulcat.errors import EulcatError
from eulcat.eulerchar import chi_scwol
from eulcat.fincat import NonAssociative, NotScwol, classify, path_counts, product, validate
from eulcat.groups import cyclic_group, symmetric_group
from eulcat.hocolim import chi2_of, grothendieck

from helpers import reference_validate
from strategies import SEEDS, groupoids, posets, scwols, skeletal_scwols, strict_diagrams
from test_cli_fuzz import MUTATIONS, mutate

# a non-thin family, so that associativity is checked
non_thin = scwols.map(lambda c: product(c, zoo.parallel_pair_scwol()))
categories = st.one_of(scwols, posets, groupoids.map(lambda g: g.category), non_thin,
                       strict_diagrams.map(lambda d: grothendieck(d).category))


def verdict(read, payload):
    """What ``read`` makes of ``payload``: the class, message and witness of
    its rejection, or the name fields of the category, each read."""
    try:
        cat = read(copy.deepcopy(payload), name="C")
    except EulcatError as exc:
        return type(exc), str(exc), exc.witness
    return name_fields(cat)


NAMES = ("name", "objects", "morphisms", "identity", "composition", "_invertible",
         "_directly_finite", "_hom", "_by_source")


def normal(value):
    """A mapping as its items in order, so that order is compared too."""
    return list(value.items()) if isinstance(value, dict) else value


def name_fields(cat):
    return tuple(normal(getattr(cat, field)) for field in NAMES)


def assert_same_verdict(payload):
    got = verdict(validate, payload)
    assert got == verdict(reference_validate, payload)
    return got


# -- one fault each ----------------------------------------------------------------


def fault(payload, kind, rng):
    """``payload`` with the fault ``kind`` at a drawn place (left lawful
    where the category has no such place)."""
    p = copy.deepcopy(payload)
    objects, morphisms, identity, compose = (p["objects"], p["morphisms"], p["identity"],
                                             p["compose"])
    x = rng.choice(objects)
    if kind == "duplicate object":
        objects.insert(rng.randrange(len(objects) + 1), x)
    elif kind == "duplicate morphism":
        m = copy.deepcopy(rng.choice(morphisms))
        m["target"] = rng.choice(objects)
        morphisms.insert(rng.randrange(len(morphisms) + 1), m)
    elif kind == "unknown endpoint":
        rng.choice(morphisms)[rng.choice(["source", "target"])] = "?nowhere"
    elif kind == "missing identity":
        del identity[x]
    elif kind == "unknown identity":
        identity[x] = "?noid"
    elif kind == "non-endo identity":
        others = [m["id"] for m in morphisms if (m["source"], m["target"]) != (x, x)]
        if others:
            identity[x] = rng.choice(others)
    elif kind == "identity of no object":
        identity["?ghost"] = identity[x]
    elif kind == "JSON numbers":
        number = {name: k for k, name in enumerate(sorted({*objects, *(m["id"] for m in morphisms)}))}
        p["objects"] = [number[y] for y in objects]
        p["morphisms"] = [{"id": number[m["id"]], "source": number[m["source"]],
                           "target": number[m["target"]]} for m in morphisms]
        p["identity"] = {str(number[k]): number[v] for k, v in identity.items()}
        p["compose"] = [[number[g] if rng.random() < 0.7 else str(number[g]), number[f],
                         number[gf]] for g, f, gf in compose]
    elif kind == "late malformed morphism":
        # reported before every other fault, here an unknown endpoint first
        morphisms[0]["source"] = "?nowhere"
        del morphisms[rng.randrange(len(morphisms) // 2, len(morphisms))][
            rng.choice(["id", "source", "target"])]
    elif kind == "short or long entry":
        entry = rng.choice(compose)
        if rng.random() < 0.5:
            entry.pop()
        else:
            entry.append(entry[0])
        identity[x] = "?noid"  # reported after the malformed entry
    elif kind == "pair listed twice":
        entry = rng.choice(compose)
        twin = [entry[0], entry[1], rng.choice(morphisms)["id"]]
        compose.insert(rng.randrange(len(compose) + 1), twin)
    elif kind == "unknown name in an entry":
        rng.choice(compose)[rng.randrange(3)] = "?unknown"
    elif kind == "composite with other endpoints":
        rng.choice(compose)[2] = rng.choice(morphisms)["id"]
    elif kind == "dropped entry":
        del compose[rng.randrange(len(compose))]
    elif kind == "composite swapped for a twin":
        ends = {m["id"]: (m["source"], m["target"]) for m in morphisms}
        swaps = [(entry, m["id"]) for entry in compose for m in morphisms
                 if m["id"] != entry[2] and (m["source"], m["target"]) == ends[entry[2]]]
        if swaps:  # the result may still be lawful
            entry, twin = rng.choice(swaps)
            entry[2] = twin
    return p


FAULTS = ("duplicate object", "duplicate morphism", "unknown endpoint", "missing identity",
          "unknown identity", "non-endo identity", "identity of no object", "JSON numbers",
          "late malformed morphism", "short or long entry", "pair listed twice",
          "unknown name in an entry", "composite with other endpoints", "dropped entry",
          "composite swapped for a twin")


class TestRecordReference:
    @settings(max_examples=40, deadline=None)
    @given(categories)
    def test_lawful_manifests(self, cat):
        payload = manifest.category_payload(cat)
        assert assert_same_verdict(payload)[2] == cat.morphisms

    @pytest.mark.parametrize("kind", FAULTS)
    @settings(max_examples=25, deadline=None)
    @given(cat=categories, seed=SEEDS)
    def test_one_fault(self, kind, cat, seed):
        rng = Random(seed)
        payload = manifest.category_payload(cat)
        rng.shuffle(payload["compose"])
        got = assert_same_verdict(fault(payload, kind, rng))
        if kind == "JSON numbers":
            assert got[0] == cat.name  # lawful, its ids read as strings
        elif kind in ("late malformed morphism", "short or long entry"):
            assert got[1].startswith("C: malformed category description")

    @settings(max_examples=60, deadline=None)
    @given(categories, SEEDS, st.sampled_from(MUTATIONS))
    def test_fuzzed_manifests(self, cat, seed, mutation):
        assert_same_verdict(mutate(manifest.category_payload(cat), Random(seed), mutation))

    def test_broken_triples(self):
        """Twin swaps on subsets_poset_opposite(3) x {j => k}: every verdict
        is the reference's, and some are a broken triple."""
        payload = manifest.category_payload(product(zoo.subsets_poset_opposite(3),
                                                    zoo.parallel_pair_scwol()))
        kinds = {assert_same_verdict(fault(payload, "composite swapped for a twin", Random(seed)))[0]
                 for seed in range(30)}
        assert NonAssociative in kinds

    def test_each_fault_is_rejected(self):
        """The faults are not vacuous: on a non-thin category with a
        non-endomorphism, every kind but JSON numbers is rejected."""
        payload = manifest.category_payload(product(zoo.pushout_scwol(), zoo.parallel_pair_scwol()))
        for kind in FAULTS:
            got = assert_same_verdict(fault(payload, kind, Random(1)))
            assert (kind == "JSON numbers") == (got[0] == payload["name"]), kind


# -- records and name lookups made on first read --------------------------------------

RECORD_FIELDS = {"morphisms", "_hom", "_by_source"}


def records_made(cat) -> set:
    return RECORD_FIELDS & vars(cat).keys()


class TestNamesOnFirstRead:
    @pytest.mark.parametrize("build", [lambda: zoo.polygon_scwol(12),
                                       lambda: zoo.subsets_poset_opposite(3),
                                       lambda: product(zoo.pushout_scwol(),
                                                       zoo.parallel_pair_scwol())],
                             ids=["polygon12", "subsets3", "pushout-x-pair"])
    @pytest.mark.parametrize("command", ["classify", "chi", "chi2", "chil", "weighting", "paths"])
    def test_cli_commands_make_no_records(self, build, command, monkeypatch):
        """The ``posets`` commands that print numbers or flags leave the
        records and the name tables of a loaded manifest unmade."""
        loaded = []
        real = fincat._load
        monkeypatch.setattr(fincat, "_load", lambda *a: loaded.append(real(*a)) or loaded[-1])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            manifest.dump_file(path, "category", build())
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--json", command, path])
        assert len(loaded) == 1 and not records_made(loaded[0])
        assert "composition" not in vars(loaded[0]) and code in (0, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(skeletal_scwols, posets, skeletal_scwols.map(
        lambda c: product(c, zoo.parallel_pair_scwol()))))
    def test_library_reads_make_no_records(self, cat):
        """On skeletal scwols, the shape of the ``posets`` manifests; a
        rejection's witness, or a skeleton to take first, may read names."""
        loaded = validate(manifest.category_payload(cat), name=cat.name)
        classify(loaded)
        for fn in (ratlin.weighting, ratlin.coweighting, ratlin.chi_L, chi2_of, chi_scwol,
                   path_counts):
            fn(loaded)
        assert not records_made(loaded) and "composition" not in vars(loaded)

    @pytest.mark.parametrize("order", [2, 3])
    def test_scwol_witness_makes_no_records(self, order):
        """``chi_scwol`` of a loaded B(Z/n) names its NotScwol witness, the
        first non-identity endomorphism, from the arrays, as the eager
        category does, and makes no records."""
        cat = zoo.one_object_category(cyclic_group(order))
        loaded = validate(manifest.category_payload(cat), name=cat.name)
        for each in (cat, loaded):
            with pytest.raises(NotScwol) as err:
                chi_scwol(each)
            assert err.value.witness == {"morphism": "1"}
        assert not records_made(loaded) and "composition" not in vars(loaded)

    def test_groups_loads_make_no_records(self, monkeypatch):
        """Loading an action, a complex of groups or a pseudo diagram (the
        ``groups`` manifests) makes no records of any category in it."""
        loaded = []
        real = fincat._load
        monkeypatch.setattr(fincat, "_load", lambda *a: loaded.append(real(*a)) or loaded[-1])
        action = randgen.cone_action(randgen.induced_free_action(symmetric_group(3),
                                                                 zoo.polygon_scwol(4)))
        cplx = groupact.complex_of_groups(action).complex
        for kind, value in (("action", action), ("complex", cplx),
                            ("pseudo_diagram", groupact.complex_to_pseudo_diagram(cplx))):
            loaded.clear()
            manifest.parse(manifest.serialize(kind, value))
            assert loaded and not any(records_made(cat) for cat in loaded), kind

    @settings(max_examples=30, deadline=None)
    @given(categories, SEEDS)
    def test_first_reads_equal_the_eager_category(self, cat, seed):
        """Each name field, read first on its own, equals that of the eager
        ``FinCat`` built from the same payload: same order, identity map,
        inverses and table items."""
        payload = manifest.category_payload(cat)
        Random(seed).shuffle(payload["compose"])
        eager = reference_validate(payload, name=cat.name)
        want = dict(zip(NAMES, name_fields(eager)))
        for field in NAMES:
            loaded = validate(payload, name=cat.name)
            assert normal(getattr(loaded, field)) == want[field], field
        assert loaded.morphism_names() == eager.morphism_names()
        assert [loaded.has_object(x) for x in (*cat.objects, "?")] == [True] * len(cat) + [False]
        assert list(loaded._arrows()) == list(eager._arrows())

    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_total_first_reads_equal_the_eager_category(self, d):
        """The same for a Grothendieck total (``hocolim._Total``), against
        the name-keyed ``FinCat`` rebuilt from its own table."""
        fields = {}
        for field in NAMES:
            total = grothendieck(d).category
            fields[field] = normal(getattr(total, field))
        eager = fincat.FinCat(total.objects, total.morphisms, dict(total.identity),
                              dict(total.composition), name=total.name)
        assert fields == dict(zip(NAMES, name_fields(eager)))

