"""The three benchmark workloads: their inputs, tasks and correctness oracles.

A workload's ``setup(seed, out_dir)`` builds every input from the seed,
writes the manifests it needs and returns the list of tasks.  One task is one
``eulcat`` CLI invocation (run in-process through ``eulcat.cli.main``) or one
instance of the randomized audit.  ``Task.run`` is what gets timed;
``Task.check`` compares the outcome with the recorded golden value and with
the closed-form identities of the paper, outside the timed region.

Every size below is fixed; the seed only picks the task order and which
entry a corrupted manifest breaks (and, for ``audit``, the instances
themselves, exactly as ``scripts/randomized_audit.py --seed`` draws them).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Optional

from eulcat import cli, eulerchar, fincat, groupact, hocolim, manifest, randgen, zoo
from eulcat.groups import cyclic_group, symmetric_group

AUDIT_DIGEST = 6  # hex digits of an audit report's golden digest

SUBCOMMANDS = ("validate", "classify", "skeleton", "chi", "chi2", "chil", "weighting", "paths")

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is the
# smoke run of perfbench/selfcheck.py.
SIZES = {
    "full": {
        "subsets": (2, 3, 4, 5),
        "polygons": (8, 12, 16, 20, 24, 32, 40, 48, 64, 80),
        "broken_subsets": (4, 5),
        "dangling": ("sub5", "poly80"),
        "audit_instances": 1500,
        "groups": (
            ("S3", "triv", "poly", 3), ("S3", "triv", "cone", 3),
            ("S3", "triv", "poly", 6), ("S3", "triv", "cone", 6),
            ("S4", "triv", "poly", 2), ("S4", "free", "cone", 2),
            ("Z3", "triv", "poly", 9), ("Z3", "triv", "cone", 9),
            ("Z5", "triv", "poly", 6), ("Z5", "triv", "cone", 6),
            ("Z7", "triv", "poly", 4), ("Z7", "triv", "cone", 4),
            ("S3", "free", "cone", 4), ("Z4", "free", "cone", 5),
            ("Z5", "free", "cone", 4),
        ),
    },
    "tiny": {
        "subsets": (3,),
        "polygons": (6,),
        "broken_subsets": (3,),
        "dangling": ("poly6",),
        "audit_instances": 8,
        "groups": (("Z3", "triv", "cone", 3), ("S3", "free", "cone", 2)),
    },
}


def digest(text: str, length: int = 16) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:length]


@dataclass
class Outcome:
    code: int
    out: str  # stdout, or the repr of the returned report for audit tasks
    err: str
    facts: Optional[dict] = None  # named identities an audit task checked


@dataclass
class Task:
    key: str  # golden key, unique within the workload
    run: Callable[[], Outcome]
    oracle: Callable[[Outcome], Optional[str]]  # a failure reason or None
    digest_len: int = 16

    def check(self, outcome: Outcome, golden: Optional[tuple[int, str]]) -> Optional[str]:
        """Failure reason for ``outcome``, or None if it is correct."""
        if golden is not None:
            code, want = golden
            if outcome.code != code:
                return f"exit code {outcome.code}, golden {code}"
            if digest(outcome.out, self.digest_len) != want:
                return "output differs from the golden digest"
        return self.oracle(outcome)


# -- CLI tasks ---------------------------------------------------------------


def cli_task(key: str, argv: list[str], oracle) -> Task:
    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["--json", *argv])
            except SystemExit as exc:  # argparse rejections
                code = exc.code if isinstance(exc.code, int) else 2
        return Outcome(code, out.getvalue(), err.getvalue())

    return Task(key, run, oracle)


def json_oracle(expect_code: int, checks: Callable[[dict], Optional[str]]):
    """Oracle for a successful CLI run: exit code, parseable report, checks."""

    def oracle(outcome: Outcome) -> Optional[str]:
        if outcome.code != expect_code:
            return f"exit code {outcome.code}, expected {expect_code}: {outcome.err.strip()[:200]}"
        if "Traceback" in outcome.err:
            return "traceback on stderr"
        try:
            return checks(json.loads(outcome.out))
        except (KeyError, TypeError, ValueError) as exc:
            return f"unreadable report ({type(exc).__name__}: {exc})"

    return oracle


def rejection_oracle(needle: str):
    """Oracle for a corrupted manifest: exit 2, one ``error:`` line, no traceback."""

    def oracle(outcome: Outcome) -> Optional[str]:
        lines = outcome.err.splitlines()
        if outcome.code != 2:
            return f"exit code {outcome.code}, expected 2"
        if outcome.out or len(lines) != 1 or not lines[0].startswith("error: "):
            return f"expected one 'error:' line and no output, got {outcome.err[:200]!r}"
        if "Traceback" in outcome.err or needle not in lines[0]:
            return f"rejected for the wrong reason: {lines[0][:200]!r}"
        return None

    return oracle


def _equal(report: dict, field: str, want) -> Optional[str]:
    got = report.get(field)
    if Fraction(str(got)) != Fraction(want):
        return f"{field} = {got}, expected {want}"
    return None


def _all(*reasons: Optional[str]) -> Optional[str]:
    return next((r for r in reasons if r), None)


def write_manifest(path: str, kind: str, value) -> str:
    manifest.dump_file(path, kind, value)
    return path


def write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- posets ------------------------------------------------------------------


def _scwol_oracles(chi: int) -> dict[str, Callable[[dict], Optional[str]]]:
    """Closed-form checks per subcommand for a contractible (chi 1) or
    circle-like (chi 0) scwol: chi_L = chi_scwol = chi2 = weighting total."""
    return {
        "validate": lambda r: None if r.get("valid") is True else "not reported valid",
        "classify": lambda r: None if r.get("is_scwol") and r.get("is_skeletal") else "not a skeletal scwol",
        "skeleton": lambda r: None if all(len(c) == 1 for c in r["classes"]) else "not skeletal",
        "chi": lambda r: _equal(r, "chi", chi),
        "chi2": lambda r: _equal(r, "chi2", chi),
        "chil": lambda r: _equal(r, "chi_L", chi),
        "weighting": lambda r: _equal(r, "total", chi),
        "paths": lambda r: _equal(r, "chi", chi),
    }


def _break_associativity(q: int, rng: Random) -> dict:
    """subsets_poset_opposite(q) x {j => k} with one composite swapped for its
    parallel twin.

    A poset or polygon has at most one arrow between two objects, so no
    change to a composite that keeps its endpoints can break associativity;
    the product with the parallel pair gives every arrow a twin.  The broken
    pair (g, f) has f leaving the top subset, which is the last block of the
    morphism list, so validation scans every entry, checks totality and the
    identity laws, and walks nearly all composable triples before it finds
    h o (g o f) != (h o g) o f.
    """
    base = zoo.subsets_poset_opposite(q)
    pair = zoo.parallel_pair_scwol()
    payload = manifest.category_payload(fincat.product(base, pair))
    top = base.objects[-1]
    candidates = []
    for f in base.morphisms_from(top):
        k = base.target(f)
        if base.is_identity(f) or k.count(",") < 2:
            continue  # |K| >= 3 leaves room for a non-identity h after g
        for g in base.morphisms_from(k):
            if not base.is_identity(g) and base.target(g).count(",") >= 1:
                candidates.append((g, f))
    g, f = rng.choice(sorted(candidates))
    # (g, id_k) o (f, f0) = (gf, f0); its twin is (gf, f1)
    a_side = rng.choice([("id_k", "f0", "f1"), ("id_k", "f1", "f0")])
    g_name, f_name = f"({g},{a_side[0]})", f"({f},{a_side[1]})"
    for entry in payload["compose"]:
        if entry[0] == g_name and entry[1] == f_name:
            entry[2] = entry[2].replace(f",{a_side[1]})", f",{a_side[2]})")
            break
    else:
        raise RuntimeError("composite to break not found")
    payload["name"] = f"{payload['name']}-broken"
    return {"schema": 1, "kind": "category", "payload": payload}


def _dangle(cat: fincat.FinCat, rng: Random) -> dict:
    """A copy of ``cat`` whose composition table names an unknown morphism in
    one entry of its last tenth."""
    payload = manifest.category_payload(cat)
    table = payload["compose"]
    entry = table[rng.randrange(len(table) - max(1, len(table) // 10), len(table))]
    entry[2] = "ghost"
    payload["name"] = f"{payload['name']}-dangling"
    return {"schema": 1, "kind": "category", "payload": payload}


def posets_setup(seed: int, out_dir: str, size: str = "full") -> list[Task]:
    spec = SIZES[size]
    rng = Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    tasks = []
    cats = {}
    for q in spec["subsets"]:
        cats[f"sub{q}"] = (zoo.subsets_poset_opposite(q), 1)
    for n in spec["polygons"]:
        cats[f"poly{n}"] = (zoo.polygon_scwol(n), 0)
    for name, (cat, chi) in cats.items():
        path = write_manifest(os.path.join(out_dir, f"{name}.json"), "category", cat)
        oracles = _scwol_oracles(chi)
        for sub in SUBCOMMANDS:
            tasks.append(cli_task(f"posets/{name}/{sub}", [sub, path], json_oracle(0, oracles[sub])))

    broken = {f"sub{q}xA-assoc": (_break_associativity(q, rng), "h o (g o f) != (h o g) o f")
              for q in spec["broken_subsets"]}
    for name in spec["dangling"]:
        broken[f"{name}-dangling"] = (_dangle(cats[name][0], rng), "names unknown morphisms")
    for name, (data, needle) in broken.items():
        path = write_json(os.path.join(out_dir, f"{name}.json"), data)
        for sub in ("validate", "chi"):
            tasks.append(cli_task(f"posets/{name}/{sub}", [sub, path], rejection_oracle(needle)))
    return tasks


# -- groups ------------------------------------------------------------------


GROUPS = {
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z5": lambda: cyclic_group(5),
    "Z7": lambda: cyclic_group(7),
}


def _action(group_name: str, mode: str, space: str, n: int):
    """A trivial action on a polygon or on a cone over one, or the induced
    free action G x polygon(n) extended over the cone with a fixed apex.
    Returns the action and chi of its space (0 for polygons, 1 for cones)."""
    group = GROUPS[group_name]()
    if mode == "free":
        return randgen.cone_action(randgen.induced_free_action(group, zoo.polygon_scwol(n))), 1
    poly = zoo.polygon_scwol(n)
    if space == "cone":
        return groupact.trivial_action(group, zoo.cone(poly)), 1
    return groupact.trivial_action(group, poly), 0


def groups_setup(seed: int, out_dir: str, size: str = "full") -> list[Task]:
    os.makedirs(out_dir, exist_ok=True)
    tasks = []
    for group_name, mode, space, n in SIZES[size]["groups"]:
        name = f"{mode}-{group_name}-{space}{n}"
        action, chi_x = _action(group_name, mode, space, n)
        order = action.group.order
        built = groupact.complex_of_groups(action)
        cplx, quot = built.complex, built.quotient.category
        base = os.path.join(out_dir, name)
        act_path = write_manifest(f"{base}.action.json", "action", action)
        cplx_path = write_manifest(f"{base}.complex.json", "complex", cplx)
        pseudo_path = write_manifest(
            f"{base}.pseudo.json", "pseudo_diagram", groupact.complex_to_pseudo_diagram(cplx)
        )
        quot_path = write_manifest(f"{base}.quotient.json", "category", quot)

        # chi2(hocolim) = chi(X)/|G| on every route; Haefliger's lower-link
        # formula with chi(BG_x) = 1/|G_x| gives the same number.
        r = Fraction(chi_x, order)
        vals = [arg for x in quot.objects for arg in ("--val", f"{x}={Fraction(1, cplx.local[x].order)}")]
        candidates = [(chi_x, order), (chi_x, 1)]
        verdicts = ["PASS" if Fraction(c) == r * o else "FAIL" for c, o in candidates]
        dev_code = 0 if all(v == "PASS" for v in verdicts) else 1

        def theorems(rep, chi_x=chi_x, r=r):
            return _all(
                _equal(rep, "chi_space", chi_x),
                _equal(rep, "chi2_direct_route", r),
                _equal(rep, "chi2_formula_route", r),
                None if rep.get("verdict") == "PASS" else "chi theorems FAIL",
            )

        def developability(rep, r=r, verdicts=verdicts):
            got = [c.get("verdict") for c in rep.get("candidates", [])]
            return _all(_equal(rep, "chi2_hocolim", r), None if got == verdicts else f"verdicts {got}")

        def formula(rep, r=r):
            return _all(_equal(rep, "lhs", r), _equal(rep, "rhs", r),
                        None if rep.get("verdict") == "PASS" else "formula FAIL")

        specs = [
            ("chi-theorems", [act_path], 0, theorems),
            ("complex-of-groups", [act_path], 0, lambda rep: None if rep["complex"]["local"] else "no local groups"),
            ("quotient", [act_path], 0, lambda rep: None if rep["quotient"]["objects"] else "empty quotient"),
            ("hocolim-groups", [cplx_path], 0, lambda rep, r=r: _equal(rep, "chi_L", r)),
            ("developability",
             [cplx_path] + [a for c, o in candidates for a in ("--candidate", f"{c},{o}")],
             dev_code, developability),
            ("haefliger", [quot_path] + vals, 0, lambda rep, r=r: _equal(rep, "chi", r)),
            ("check-formula", [pseudo_path], 0, formula),
            ("hocolim", [pseudo_path], 0, lambda rep, r=r: _equal(rep, "chi_L", r)),
        ]
        for sub, argv, code, check in specs:
            tasks.append(cli_task(f"groups/{name}/{sub}", [sub, *argv], json_oracle(code, check)))
    return tasks


# -- audit -------------------------------------------------------------------


def audit_counts(instances: int) -> tuple[int, int, int]:
    """Diagrams, free actions and actions the audit script draws for N."""
    return instances, max(10, instances // 4), max(10, instances // 10)


def audit_keys(instances: int) -> list[str]:
    n_formula, n_free, n_reduction = audit_counts(instances)
    return ([f"audit/formula{i}" for i in range(n_formula)]
            + [f"audit/free{i}" for i in range(n_free)]
            + [f"audit/reduction{i}" for i in range(n_reduction)])


def audit_instances(seed: int, instances: int):
    """The instances of ``scripts/randomized_audit.py --instances N --seed S``,
    drawn in the script's order from one Random(seed)."""
    rng = Random(seed)
    n_formula, n_free, n_reduction = audit_counts(instances)
    diagrams = [randgen.random_strict_diagram(rng) for _ in range(n_formula)]
    free = [randgen.random_free_action(rng) for _ in range(n_free)]
    actions = [randgen.random_action(rng) for _ in range(n_reduction)]
    return diagrams, free, actions


def _formula_task(key: str, d) -> Task:
    # Library entry points are looked up on their modules at call time, so a
    # traced run sees the same bindings the audit script uses.
    def run() -> Outcome:
        rep = hocolim.check_hocolim_formula(d, "chiL")
        flags = fincat.classify(hocolim.grothendieck(d).category)
        report = (rep.invariant, rep.lhs, rep.rhs, sorted(rep.vertex_values.items()), rep.equal, flags)
        return Outcome(0, repr(report), "", {
            "hocolim formula lhs == rhs": rep.equal,
            "hocolim is directly finite": flags.is_directly_finite,
            "hocolim is EI": flags.is_EI,
        })

    return Task(key, run, facts_oracle, digest_len=AUDIT_DIGEST)


def _free_task(key: str, action) -> Task:
    def run() -> Outcome:
        q = groupact.quotient(action)
        chi_q = eulerchar.chi_scwol(q.category)
        chi_x = eulerchar.chi_scwol(action.space)
        order = action.group.order
        report = (chi_q, chi_x, order, q.category.objects, len(q.category.morphisms))
        return Outcome(0, repr(report), "", {"chi(X/G) * |G| == chi(X)": chi_q * order == chi_x})

    return Task(key, run, facts_oracle, digest_len=AUDIT_DIGEST)


def _reduction_task(key: str, action) -> Task:
    def run() -> Outcome:
        red = groupact.skeletal_reduction(action).report
        th = groupact.chi_theorems(action)
        chi2 = Fraction(th.chi_space, action.group.order)
        return Outcome(0, repr((red, th)), "", {
            "skeletal reduction preserves structure": red.all_hold(),
            "chi theorems hold": th.all_hold(),
            "chi2(hocolim) == chi(X)/|G|": th.chi2_hocolim_direct_route == chi2,
        })

    return Task(key, run, facts_oracle, digest_len=AUDIT_DIGEST)


def facts_oracle(outcome: Outcome) -> Optional[str]:
    return next((f"{name} fails" for name, holds in outcome.facts.items() if not holds), None)


def audit_setup(seed: int, out_dir: str, size: str = "full") -> list[Task]:
    """One task per instance, on freshly drawn instances (nothing computed on
    them survives from an earlier pass, as in one run of the audit script)."""
    instances = SIZES[size]["audit_instances"]
    diagrams, free, actions = audit_instances(seed, instances)
    makers = [_formula_task] * len(diagrams) + [_free_task] * len(free) + [_reduction_task] * len(actions)
    return [make(key, inst) for make, key, inst in zip(makers, audit_keys(instances), diagrams + free + actions)]


WORKLOADS = {
    "posets": posets_setup,
    "audit": audit_setup,
    "groups": groups_setup,
}
