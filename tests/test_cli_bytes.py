"""The exact bytes of every ``eulcat`` subcommand.

Each case runs ``eulcat.cli.main`` in human and in ``--json`` mode and
requires the exit code, stdout and stderr recorded in ``cli_bytes.json``,
including the exit-1 (a check FAILed) and exit-2 (invalid input) cases.
Manifests are written to a temporary directory that is also the working
directory, so error lines carry the same relative paths on every machine.
argparse output (usage, ``--help``) is pinned at an 80-column width; its
layout follows the Python minor version the file was recorded with.

To record the file again after an intended output change, run
``PYTHONPATH=src python tests/test_cli_bytes.py`` and review the diff.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from eulcat import manifest, randgen, zoo
from eulcat.cli import main
from eulcat.groupact import ScwolAction, complex_of_groups, complex_to_pseudo_diagram
from eulcat.groups import cyclic_group
from eulcat.hocolim import builtin_spectrum, constant_diagram, grothendieck

from helpers import monoid_z2_mult

EXPECTED = Path(__file__).with_name("cli_bytes.json")


def _discrete_z2_action() -> ScwolAction:
    return ScwolAction(
        cyclic_group(2),
        zoo.discrete_category(["1", "2"]),
        {"0": {"1": "1", "2": "2"}, "1": {"1": "2", "2": "1"}},
        {"0": {"id_1": "id_1", "id_2": "id_2"}, "1": {"id_1": "id_2", "id_2": "id_1"}},
    )


def _bz2_diagram():
    return constant_diagram(zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))


MANIFESTS = {
    "p.json": ("category", zoo.pushout_scwol),
    "fat.json": ("category", lambda: zoo.inflate(zoo.pushout_scwol(), {"j": 2, "k": 1, "l": 1})),
    "m.json": ("category", monoid_z2_mult),
    "bz2.json": ("category", lambda: zoo.one_object_category(cyclic_group(2))),
    "total.json": ("category", lambda: grothendieck(_bz2_diagram()).category),
    "act.json": ("action", randgen.circle_action),
    "t.json": ("action", _discrete_z2_action),
    "cplx.json": ("complex", lambda: complex_of_groups(randgen.circle_action()).complex),
    "pseudo.json": (
        "pseudo_diagram",
        lambda: complex_to_pseudo_diagram(complex_of_groups(randgen.circle_action()).complex),
    ),
    "d.json": ("diagram", _bz2_diagram),
    "s.json": ("spectrum", lambda: builtin_spectrum("pushout")),
}

CASES = {
    "help": ["--help"],
    "validate-category": ["validate", "p.json"],
    "validate-action": ["validate", "act.json"],
    "validate-complex": ["validate", "cplx.json"],
    "validate-pseudo": ["validate", "pseudo.json"],
    "validate-diagram": ["validate", "d.json"],
    "validate-spectrum": ["validate", "s.json"],
    "classify-pushout": ["classify", "p.json"],
    "classify-monoid": ["classify", "m.json"],
    "skeleton-fat": ["skeleton", "fat.json"],
    "skeleton-monoid": ["skeleton", "m.json"],
    "chi-pushout": ["chi", "p.json"],
    "chi-fat": ["chi", "fat.json"],
    "chi-monoid": ["chi", "m.json"],
    "chi2-pushout": ["chi2", "p.json"],
    "chi2-groupoid": ["chi2", "bz2.json"],
    "chi2-free-ei": ["chi2", "total.json"],
    "chi2-monoid": ["chi2", "m.json"],
    "chil-pushout": ["chil", "p.json"],
    "chil-monoid": ["chil", "m.json"],
    "weighting-pushout": ["weighting", "p.json"],
    "weighting-monoid": ["weighting", "m.json"],
    "coweighting-pushout": ["weighting", "--co", "p.json"],
    "coweighting-monoid": ["weighting", "--co", "m.json"],
    "paths-pushout": ["paths", "p.json"],
    "paths-fat": ["paths", "fat.json"],
    "paths-max-dim-1": ["paths", "p.json", "--max-dim", "1"],
    "paths-monoid": ["paths", "m.json"],
    "paths-max-dim-not-int": ["paths", "p.json", "--max-dim", "x"],
    "hocolim-diagram": ["hocolim", "d.json"],
    "hocolim-pseudo": ["hocolim", "pseudo.json"],
    "hocolim-complex": ["hocolim", "cplx.json"],
    "hocolim-wrong-kind": ["hocolim", "p.json"],
    "check-formula": ["check-formula", "d.json"],
    "check-formula-chi2": ["check-formula", "d.json", "--invariant", "chi2"],
    "check-formula-chi-scwol": ["check-formula", "d.json", "--invariant", "chi_scwol"],
    "check-formula-spectrum": ["check-formula", "d.json", "--spectrum", "s.json"],
    "check-formula-pseudo": ["check-formula", "pseudo.json"],
    "check-formula-bad-invariant": ["check-formula", "d.json", "--invariant", "nope"],
    "check-formula-wrong-kind": ["check-formula", "cplx.json"],
    "check-formula-spectrum-wrong-kind": ["check-formula", "d.json", "--spectrum", "p.json"],
    "quotient": ["quotient", "act.json"],
    "quotient-wrong-kind": ["quotient", "p.json"],
    "complex-of-groups": ["complex-of-groups", "act.json"],
    "complex-of-groups-discrete": ["complex-of-groups", "t.json"],
    "hocolim-groups": ["hocolim-groups", "cplx.json"],
    "hocolim-groups-wrong-kind": ["hocolim-groups", "d.json"],
    "transport": ["transport", "t.json"],
    "transport-not-discrete": ["transport", "act.json"],
    "chi-theorems": ["chi-theorems", "act.json"],
    "chi-theorems-discrete": ["chi-theorems", "t.json"],
    "developability-no-candidate": ["developability", "cplx.json"],
    "developability-pass": ["developability", "cplx.json", "--candidate", "0,2"],
    "developability-fail": [
        "developability", "cplx.json", "--candidate", "0,2", "--candidate", "1,3",
    ],
    "developability-bad-candidate": ["developability", "cplx.json", "--candidate", "1:3"],
    "haefliger": ["haefliger", "p.json", "--val", "j=1/2", "--val", "k=1/3", "--val", "l=1/5"],
    "haefliger-missing-val": ["haefliger", "p.json", "--val", "j=1/2"],
    "haefliger-bad-val": ["haefliger", "p.json", "--val", "j:1"],
    "haefliger-not-scwol": ["haefliger", "m.json"],
    "haefliger-help": ["haefliger", "--help"],
    "demo-intro-pushout": ["demo", "intro-pushout"],
    "demo-z2-circle": ["demo", "z2-circle"],
    "demo-inclusion-exclusion": ["demo", "inclusion-exclusion"],
    "demo-transport-s3": ["demo", "transport-s3"],
    "demo-weightings": ["demo", "weightings"],
    "demo-unknown": ["demo", "nonsense"],
    "missing-file": ["chi", "missing.json"],
}

RUNS = {
    f"{name}/{mode}": (["--json"] if mode == "json" else []) + argv
    for name, argv in CASES.items()
    for mode in ("human", "json")
}


def write_manifests(directory: Path) -> None:
    for filename, (kind, build) in MANIFESTS.items():
        manifest.dump_file(str(directory / filename), kind, build())


def run(argv: list[str], capture) -> dict:
    """Exit code, stdout and stderr of one call; ``capture()`` returns and
    clears what was printed so far."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejections and --help
        code = exc.code
    out, err = capture()
    return {"argv": argv, "code": code, "stdout": out, "stderr": err}


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_bytes")
    write_manifests(directory)
    return directory


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_every_run_is_recorded(expected):
    assert sorted(expected) == sorted(RUNS)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_cli_bytes(run_id, manifest_dir, expected, monkeypatch, capsys):
    monkeypatch.chdir(manifest_dir)
    monkeypatch.setenv("COLUMNS", "80")
    got = run(RUNS[run_id], lambda: tuple(capsys.readouterr()))
    assert got == expected[run_id]


def record() -> None:
    import contextlib
    import io
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        write_manifests(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            results = {}
            for run_id, argv in sorted(RUNS.items()):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    results[run_id] = run(
                        argv, lambda: (out.getvalue(), err.getvalue())
                    )
        finally:
            os.chdir(cwd)
    EXPECTED.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} runs in {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    record()
