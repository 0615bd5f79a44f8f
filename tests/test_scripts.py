"""Smoke runs of the scripts under ``scripts/``, each in its own process."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300,
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_run_demos():
    out = run_script("run_demos.py")
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "all 5 demos PASS"


def test_randomized_audit():
    out = run_script("randomized_audit.py", "--instances", "20", "--seed", "0")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "FAIL" not in out.stdout
    # each section's seconds, and of those the seconds spent drawing
    for prefix in ("homotopy colimit formula: 20 instances, 0 failures, ",
                   "free quotient law: 10 instances, 0 failures, ",
                   "skeletal reduction + chi theorems: 10 actions, 0 failures, "):
        assert re.search(re.escape(prefix) + r"\d+\.\d\ds \(\d+\.\d\ds drawing\)$",
                         out.stdout, re.MULTILINE), out.stdout


# Runs the audit with every coweighting total off by one, so the Lemma 1.3
# cross-check (weighting and coweighting totals of each total category) has
# something to catch.
SKEWED_AUDIT = """
import runpy, sys
from eulcat import ratlin

real = ratlin.coweighting

class Skewed:
    def __init__(self, w):
        self.w = w

    def total(self):
        return self.w.total() + 1

ratlin.coweighting = lambda cat: Skewed(real(cat))
path = sys.argv[1]
sys.argv = [path, "--instances", "5", "--seed", "0"]
runpy.run_path(path, run_name="__main__")
"""


def test_randomized_audit_catches_a_skewed_coweighting():
    out = run_python("-c", SKEWED_AUDIT, str(ROOT / "scripts" / "randomized_audit.py"))
    assert out.returncode == 1, out.stdout + out.stderr
    fails = [line for line in out.stdout.splitlines() if line.startswith("LEINSTER FAIL")]
    assert len(fails) == 5, out.stdout
    assert "homotopy colimit formula: 5 instances, 5 failures" in out.stdout


def in_git_checkout() -> bool:
    try:
        subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                       capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.skipif(not in_git_checkout(), reason="bench_pairs.py archives a git commit")
def test_bench_pairs_tiny(tmp_path):
    """One pair at seed 0 and one at the held-out seed 1009, each summarised
    in the schema of the ``BENCH_*.json`` files."""
    out_path = tmp_path / "bench.json"
    out = run_script("bench_pairs.py", "--size", "tiny", "--pairs", "1", "--seconds", "1",
                     "--seed", "0", "--seed", "1009", "--workload", "groups",
                     "--claim", "groups:task_p90_ms", "--out", str(out_path))
    assert out.returncode == 0, out.stdout + out.stderr
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert {"change", "command", "host", "quartiles", "claim", "workloads",
            "held_out_seed"} <= set(report)
    held_out = report["held_out_seed"]
    assert set(held_out) == {"seed", "claim", "groups"} and held_out["seed"] == 1009
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for seed, groups, claim in ((0, report["workloads"]["groups"], report["claim"]),
                                (1009, held_out["groups"], held_out["claim"])):
        assert (groups["seed"], groups["pairs"], groups["failed_runs"], groups["all_correct"]) == (
            seed, 1, 0, True)
        assert groups["first_side"] == ["parent"]
        assert list(groups["metrics"]) == [m["name"] for m in bench["end_to_end"]]
        for spec in bench["end_to_end"]:
            metric = groups["metrics"][spec["name"]]
            assert (metric["unit"], metric["better"], metric["bound"]) == (
                spec["unit"], spec["better"], spec["bound"])
            assert [len(metric["runs"][side]) for side in ("parent", "change")] == [1, 1]
            assert metric["change_wins"] in ("0/1", "1/1")
            assert isinstance(metric["within_bound"], bool)
        assert claim["metric"] == "task_p90_ms" and isinstance(claim["met"], bool)


def test_bench_pairs_takes_at_most_two_seeds():
    out = run_script("bench_pairs.py", "--seed", "0", "--seed", "1", "--seed", "2")
    assert out.returncode == 2
    assert "--seed may be given at most twice" in out.stderr


def test_bench_pairs_reads_correct_from_each_run():
    """Non-vacuity: a run that reports ``correct: false`` makes its workload
    not all correct, though it exited 0 and failed no task."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    specs = [{"name": "tasks_per_s", "unit": "1/s", "better": "higher", "bound": 0.15}]

    def result(value, correct):
        return {"correct": correct, "failed": 0, "metrics": {"tasks_per_s": {"value": value}}}

    runs = [("parent", 0, result(100.0, True)), ("change", 0, result(120.0, True)),
            ("change", 0, result(90.0, True)), ("parent", 0, result(100.0, True))]
    good = bench_pairs.summarize(specs, runs, ["parent", "change"], 0, 1.0)
    assert good["all_correct"] and good["failed_runs"] == 0
    assert good["metrics"]["tasks_per_s"]["change_wins"] == "1/2"
    assert good["metrics"]["tasks_per_s"]["median_change"] == 0.05
    runs[2] = ("change", 0, result(90.0, False))
    assert not bench_pairs.summarize(specs, runs, ["parent", "change"], 0, 1.0)["all_correct"]


def test_memory_audit_tiny():
    out = run_script("memory.py", "--workload", "audit", "--size", "tiny")
    assert out.returncode == 0, out.stdout + out.stderr
    report = json.loads(out.stdout)
    assert (report["workload"], report["seed"], report["size"]) == ("audit", 0, "tiny")
    assert report["categories"] > 0 and report["row_bytes"] > 0
    assert report["traced_peak_bytes"] >= report["traced_bytes"] > report["row_bytes"]
    assert report["with_views"] == report["view_bytes"] == 0
    assert set(report["views"].values()) == {0}
    assert report["functors"] > 0 and report["functor_bytes"] > 0
    assert report["functor_views"] == 0
    # a row is a tuple of its composites: at most 40 bytes of container per
    # entry, where a dict per row held about 100
    assert 0 < report["row_container_bytes"] <= 40 * report["cells"]
    # each distinct row tuple counted once, and a row holds at least one cell
    assert 0 < report["row_tuples"] < report["cells"]


# Runs the memory report with constructors that read their records back, the
# checked one and the unchecked writer (``fincat._stored``, through
# ``fincat._trusted``), so every category they make keeps that view, and an
# identity functor constructor that reads its object map, so every identity
# edge drawn keeps that view.
EAGER_MEMORY = """
import runpy, sys
from eulcat import fincat
from eulcat.fincat import CatFunctor, FinCat

real, trusted, identity_functor = FinCat.__post_init__, fincat._trusted, CatFunctor.identity_functor

def eager(self, *flags):
    real(self, *flags)
    self.morphisms

def eager_trusted(cls, **fields):
    value = trusted(cls, **fields)
    if cls is FinCat:
        value.morphisms
    return value

def eager_functor(*args):
    fun = identity_functor(*args)
    fun.obj_map
    return fun

FinCat.__post_init__, fincat._trusted = eager, eager_trusted
CatFunctor.identity_functor = eager_functor
path = sys.argv[1]
sys.argv = [path, "--workload", "audit", "--size", "tiny"]
runpy.run_path(path, run_name="__main__")
"""


def test_memory_counts_a_planted_eager_read():
    out = run_python("-c", EAGER_MEMORY, str(ROOT / "scripts" / "memory.py"))
    assert out.returncode == 0, out.stdout + out.stderr
    report = json.loads(out.stdout)
    assert report["with_views"] > 0 and report["view_bytes"] > 0
    assert report["views"]["morphisms"] == report["views"]["_hom"] > 0
    assert report["views"]["composition"] == 0
    assert 0 < report["functor_views"] <= report["functors"]


def load_scaling():
    """``scripts/scaling.py``, imported by its path."""
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "scripts" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    return scaling


def test_scaling_smallest():
    """The smallest size of each family, with its oracle met, in the
    report's schema; one size has no slope."""
    out = run_script("scaling.py", "--smallest", "--repeat", "1")
    assert out.returncode == 0, out.stdout + out.stderr
    report = json.loads(out.stdout)
    assert set(report) == {"repeat", "python", "families", "ok", "failures"}
    assert (report["repeat"], report["ok"], report["failures"]) == (1, True, [])
    assert list(report["families"]) == ["BZ", "FinSet", "ZnCone", "SubsetsOp", "Groupoid",
                                        "Polygon"]
    want = {"BZ": (30, 30, 900, "1/30"), "FinSet": (1, 3, 4, "1"), "ZnCone": (2, 50, 196, "1/2"),
            "SubsetsOp": (2, 19, 37, "1"), "Groupoid": (2, 18, 108, "1/2"),
            "Polygon": (40, 160, 240, "0")}
    for family, (n, morphisms, entries, chi) in want.items():
        got = report["families"][family]
        assert set(got) == {"oracle", "sizes"}
        (size,) = got["sizes"]
        timed = {"ZnCone": {"write_s", "bytes"}, "SubsetsOp": {"build_s"},
                 "Groupoid": {"build_s"}, "Polygon": {"build_s"}}.get(
            family, {"validate_s", "checked_s"})
        assert set(size) == {"n", "morphisms", "entries", "chi_L"} | timed
        assert (size["n"], size["morphisms"], size["entries"], size["chi_L"]) == (
            n, morphisms, entries, chi)
        assert all(size[key] > 0 for key in timed)


def test_scaling_finset_is_the_category_of_functions():
    """FinSet<=2 has the 1 + 1 + 1 + 0 + 1 + 2 + 0 + 1 + 4 functions
    between its three sets, and its payload validates."""
    scaling = load_scaling()
    payload = scaling.finset_payload(2)
    assert len(payload["morphisms"]) == 11
    assert len(payload["compose"]) == sum(
        len([g for g in payload["morphisms"] if g["source"] == f["target"]])
        for f in payload["morphisms"])
    scaling.fincat.validate(payload)


def failures_with_a_wrong_oracle(monkeypatch, capsys, family: str, wrong=None) -> list[str]:
    """The failures of a run whose oracle for ``family`` fixes the values
    ``wrong(n)`` instead, by default chi_L = 1/(n + 1)."""
    scaling = load_scaling()
    run, oracle, sizes, words = scaling.FAMILIES[family]
    wrong = wrong or (lambda n: {"chi_L": scaling.Fraction(1, n + 1)})
    monkeypatch.setitem(scaling.FAMILIES, family,
                        (run, lambda n: {**oracle(n), **wrong(n)}, sizes, words))
    assert scaling.main(["--smallest", "--repeat", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    return report["failures"]


def test_scaling_fails_on_a_wrong_oracle(monkeypatch, capsys):
    """Non-vacuity: an oracle that gives 1/(n + 1) for B(Z/n) fails the
    run, naming the family and size, while the other families still pass."""
    assert failures_with_a_wrong_oracle(monkeypatch, capsys, "BZ") == [
        "BZ n=30: chi_L = 1/30, oracle 1/31"]


def test_scaling_fails_on_a_wrong_writer_oracle(monkeypatch, capsys):
    """Non-vacuity: the same for the total of Z/n on the cone, whose chi_L
    is read back from the written text."""
    assert failures_with_a_wrong_oracle(monkeypatch, capsys, "ZnCone") == [
        "ZnCone n=2: chi_L = 1/2, oracle 1/3"]


def test_scaling_fails_on_a_wrong_count_oracle(monkeypatch, capsys):
    """Non-vacuity: a count oracle one morphism off for the subsets poset
    fails the run; its entries and chi_L still match."""
    assert failures_with_a_wrong_oracle(monkeypatch, capsys, "SubsetsOp",
                                        lambda q: {"morphisms": 3 ** (q + 1) - 2 ** (q + 1) + 1}) == [
        "SubsetsOp n=2: morphisms = 19, oracle 20"]


def test_scaling_fails_on_a_wrong_polygon_oracle(monkeypatch, capsys):
    """Non-vacuity: an entries oracle one off for the polygon fails the
    run; its morphisms and chi_L still match."""
    assert failures_with_a_wrong_oracle(monkeypatch, capsys, "Polygon",
                                        lambda n: {"entries": 6 * n + 1}) == [
        "Polygon n=40: entries = 240, oracle 241"]


def test_scaling_fails_on_a_wrong_groupoid_oracle(monkeypatch, capsys):
    """Non-vacuity: an entry count one off for the groupoid on Z/2 fails
    the run; its morphisms and chi_L still match."""
    assert failures_with_a_wrong_oracle(monkeypatch, capsys, "Groupoid",
                                        lambda n: {"entries": 27 * n * n + 1}) == [
        "Groupoid n=2: entries = 108, oracle 109"]


# A package of one function for ``scripts/mutants.py``: swapping ``<`` for
# ``<=`` is an equivalent mutant (at 0 both leave 0), and dropping the ``if``
# body or returning after it is killed by ``TOY_TEST``.
TOY = """def floor_at_zero(x):
    if x < 0:
        x = 0
    return x
"""
TOY_TEST = """from eulcat.toy import floor_at_zero

def test_floor_at_zero():
    assert [floor_at_zero(x) for x in (-1, 0, 2)] == [0, 0, 2]
"""


def tree_digest(root: Path) -> str:
    """sha256 over the paths and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def toy_tree(root: Path, test: str) -> Path:
    """``scripts/mutants.py`` beside a package ``eulcat`` that holds ``TOY``
    alone, and a test file ``test``."""
    for path, text in (("scripts/mutants.py", (ROOT / "scripts" / "mutants.py").read_text()),
                       ("src/eulcat/__init__.py", ""), ("src/eulcat/toy.py", TOY),
                       ("tests/test_toy.py", test)):
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text)
    return root


def run_mutants(root: Path):
    return subprocess.run([sys.executable, "scripts/mutants.py", "toy.floor_at_zero", "--",
                           "tests/test_toy.py"], cwd=root, capture_output=True, text=True,
                          timeout=300)


def test_mutants_kills_and_keeps_the_planted_equivalent(tmp_path):
    """A mutant that the test kills is killed, the planted equivalent one
    survives and makes the exit code 1, and the run writes nothing in the
    tree it mutates, nor in this repository's ``src/``."""
    before, repo_src = tree_digest(toy_tree(tmp_path, TOY_TEST)), tree_digest(ROOT / "src")
    out = run_mutants(tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    report = json.loads(out.stdout)
    table = report["functions"]["toy.floor_at_zero"]
    assert table["survived"] == [{"operator": "compare", "line": 2, "change": "x < 0 -> x <= 0"}]
    assert sorted(m["operator"] for m in table["killed"]) == ["drop_if", "return_early"]
    assert report["totals"] == {"killed": 2, "survived": 1, "timed_out": 0}
    assert tree_digest(tmp_path) == before
    assert tree_digest(ROOT / "src") == repo_src


def test_mutants_stops_on_a_failing_unmutated_run(tmp_path):
    out = run_mutants(toy_tree(tmp_path, TOY_TEST.replace("[0, 0, 2]", "[0, 0, 3]")))
    assert out.returncode == 2 and out.stdout == ""
    assert "the unmutated run fails" in out.stderr
