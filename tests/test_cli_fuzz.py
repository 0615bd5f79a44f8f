"""CLI fuzz on manifests of every kind.

A manifest drawn from the strategies is written with one entry of its
payload dropped, retyped, duplicated, swapped with a sibling or renamed, and
run through ``cli.main(["--json", cmd, path])`` for every subcommand that
takes its kind; a spectrum also goes to ``check-formula --spectrum path``
on a diagram over its unmutated index.  Each run either exits 2 with exactly
one ``error:`` line and nothing on stdout, or prints the library's own answer
on the value the manifest parses to.  Any other exception escapes and fails
the test.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import cli, groupact, hocolim, manifest, randgen, zoo
from eulcat.errors import EulcatError

from helpers import monoid_z2_mult
from strategies import (
    SEEDS,
    actions,
    groupoids,
    groups,
    posets,
    pseudo_diagrams,
    scwols,
    strict_diagrams,
)

SUBCOMMANDS = {
    kind: [name for name, c in cli.COMMANDS.items()
           if c.kinds is not None and (not c.kinds or kind in c.kinds)]
    for kind in manifest.KINDS
}
OTHER_TYPES = (0, 2.5, True, None, "x", "iii", [], {}, ["x", "x", "x"])
MUTATIONS = ("drop", "retype", "duplicate", "swap", "rename")


def paths(value, path=()):
    """The key path of every entry below ``value``."""
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield path + (key,)
        yield from paths(item, path + (key,))


def strings(value):
    """Every string below ``value``, keys included."""
    if type(value) is str:
        yield value
    elif type(value) in (dict, list):
        for key, item in (value.items() if type(value) is dict else enumerate(value)):
            if type(key) is str:
                yield key
            yield from strings(item)


def mutate(payload, rng, mutation):
    """A copy of ``payload`` with one entry changed by ``mutation``."""
    payload = copy.deepcopy(payload)
    path = rng.choice(list(paths(payload)))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    keys = list(parent) if type(parent) is dict else list(range(len(parent)))
    if mutation == "drop":
        del parent[key]
    elif mutation == "retype":
        parent[key] = rng.choice([v for v in OTHER_TYPES if type(v) is not type(value)])
    elif mutation == "duplicate":
        if type(parent) is list:
            parent.insert(key, copy.deepcopy(value))
        else:
            parent[f"{key}'"] = copy.deepcopy(value)
    elif mutation == "swap":
        other = rng.choice(keys)
        parent[key], parent[other] = parent[other], value
    else:  # rename a name to another name of the manifest, or to one of none
        name = rng.choice(sorted(set(strings(payload))) + ["ghost"])
        if type(value) is str:
            parent[key] = name
        elif type(parent) is dict:
            parent[name] = parent.pop(key)
    return payload


def library_answer(data, argv):
    """(exit code, stdout, stderr) that the library's own answer on the
    parsed value calls for."""
    try:
        kind, value = manifest.parse(data)
        args = cli._parser().parse_args(argv)
        _, report, ok = cli.COMMANDS[args.command].handler(kind, value, args)
    except EulcatError as exc:
        return 2, "", f"error: {exc}\n"
    return (0 if ok else 1), manifest._dumps(report) + "\n", ""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_json(tmp, name, data):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def assert_clean_run(kind, payload, formula_index=None):
    """Every run of the manifest is clean.  With ``formula_index`` the
    manifest, a spectrum, is also the ``--spectrum`` of ``check-formula`` on
    the constant one-point diagram over that index."""
    data = {"schema": 1, "kind": kind, "payload": payload}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(tmp, "fuzzed.json", data)
        runs = [(["--json", command, path], data) for command in SUBCOMMANDS[kind]]
        if formula_index is not None:
            diagram = json.loads(json.dumps(manifest.serialize(
                "diagram", hocolim.constant_diagram(formula_index, zoo.terminal_category()))))
            diagram_path = write_json(tmp, "diagram.json", diagram)
            runs.append((["--json", "check-formula", diagram_path, "--spectrum", path], diagram))
        for argv, parsed in runs:
            code, out, err = run_cli(argv)
            if code == 2:
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert (code, out, err) == library_answer(parsed, argv)


categories = st.one_of(scwols, posets, groupoids.map(lambda g: g.category))


@settings(max_examples=80, deadline=None)
@given(categories, SEEDS, st.sampled_from(MUTATIONS))
def test_mutated_category_manifest(cat, seed, mutation):
    payload = manifest.category_payload(cat)
    assert_clean_run("category", mutate(payload, Random(seed), mutation))


@settings(max_examples=60, deadline=None)
@given(groups, SEEDS, st.sampled_from(MUTATIONS))
def test_mutated_group_manifest(group, seed, mutation):
    payload = manifest.group_payload(group)
    assert_clean_run("group", mutate(payload, Random(seed), mutation))


@settings(max_examples=60, deadline=None)
@given(st.one_of(scwols, posets), SEEDS, st.sampled_from(MUTATIONS))
def test_mutated_spectrum_manifest(cat, seed, mutation):
    spectrum = hocolim.bar_spectrum(cat)
    payload = manifest.serialize("spectrum", spectrum)["payload"]
    assert_clean_run("spectrum", mutate(payload, Random(seed), mutation), spectrum.index)


@settings(max_examples=30, deadline=None)
@given(strict_diagrams, SEEDS, st.sampled_from(MUTATIONS))
def test_mutated_diagram_manifest(d, seed, mutation):
    payload = manifest.serialize("diagram", d)["payload"]
    assert_clean_run("diagram", mutate(payload, Random(seed), mutation))


@settings(max_examples=30, deadline=None)
@given(pseudo_diagrams, SEEDS, st.sampled_from(MUTATIONS))
def test_mutated_pseudo_diagram_manifest(p, seed, mutation):
    payload = manifest.serialize("pseudo_diagram", p)["payload"]
    assert_clean_run("pseudo_diagram", mutate(payload, Random(seed), mutation))


@settings(max_examples=30, deadline=None)
@given(actions, SEEDS, st.sampled_from(MUTATIONS))
def test_mutated_action_manifest(action, seed, mutation):
    payload = manifest.serialize("action", action)["payload"]
    assert_clean_run("action", mutate(payload, Random(seed), mutation))


@settings(max_examples=30, deadline=None)
@given(actions, SEEDS, st.sampled_from(MUTATIONS))
def test_mutated_complex_manifest(action, seed, mutation):
    payload = manifest.serialize("complex", groupact.complex_of_groups(action).complex)["payload"]
    assert_clean_run("complex", mutate(payload, Random(seed), mutation))


def outcome_codes(kind, payload):
    """The exit codes of ``validate`` over 40 seeded mutations of ``payload``."""
    codes = set()
    for seed in range(40):
        data = {"schema": 1, "kind": kind,
                "payload": mutate(payload, Random(seed), MUTATIONS[seed % len(MUTATIONS)])}
        codes.add(library_answer(data, ["--json", "validate", "unused"])[0])
    return codes


def test_mutations_reach_both_outcomes():
    """Non-vacuity: over a few seeds on one category, mutations are both
    rejected and accepted."""
    assert outcome_codes("category", manifest.category_payload(zoo.pushout_scwol())) == {0, 2}


def test_spectrum_mutations_reach_both_outcomes():
    payload = manifest.serialize("spectrum", hocolim.bar_spectrum(zoo.pushout_scwol()))["payload"]
    assert outcome_codes("spectrum", payload) == {0, 2}


@pytest.mark.parametrize("kind, value", [
    ("diagram", hocolim.constant_diagram(zoo.pushout_scwol(), monoid_z2_mult())),
    ("pseudo_diagram", groupact.complex_to_pseudo_diagram(
        groupact.complex_of_groups(randgen.circle_action()).complex)),
    ("action", randgen.circle_action()),
    ("complex", groupact.complex_of_groups(randgen.circle_action()).complex),
], ids=["diagram", "pseudo_diagram", "action", "complex"])
def test_composite_kinds_reach_both_outcomes(kind, value):
    """Non-vacuity for the diagram, pseudo-diagram, action and complex
    manifests: over a few seeds, mutations are both rejected and accepted."""
    assert outcome_codes(kind, manifest.serialize(kind, value)["payload"]) == {0, 2}
