"""Command-line front end.

Every subcommand is one row of ``COMMANDS``: its help, its handler, the
manifest kinds its FILE may hold (``()`` for any kind, ``None`` for
``demo``, which takes a NAME and loads no manifest) and its flags.
``build_parser`` walks the table.  ``main`` loads the manifest and checks its
kind, runs the handler, which returns ``(lines, report, ok)``, and prints the
human lines, or the report with ``--json``.

Exit codes: 0 success / all checks PASS, 1 computed but some check FAILed,
2 invalid input.  Every number is printed exactly, as `p/q` (or a plain
integer when the denominator is 1); ``--json`` emits the same numbers as
identical strings in a machine-readable report.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from fractions import Fraction
from typing import Any, Callable, Mapping, Optional

from . import manifest, randgen, zoo
from .errors import EulcatError
from .eulerchar import chi_scwol, groupoid_chi2
from .fincat import (
    CatFunctor,
    NotAFunctor,
    _identity_arrays,
    _iso_partition,
    classify,
    full_subcategory,
    iso_classes,
    path_counts,
)
from .groupact import (
    chi_theorems,
    complex_of_groups,
    developability_check,
    haefliger_chi,
    hocolim_groups,
    quotient,
    transport_groupoid,
)
from .groups import perm_of_label, symmetric_group
from .hocolim import (
    _total_chi_L,
    bar_spectrum,
    builtin_spectrum,
    check_hocolim_formula,
    chi2_of,
    formula_value,
    grothendieck,
    grothendieck_pseudo,
    set_diagram,
)
from .ratlin import NoEulerCharacteristic, chi_L, coweighting, weighting

R = manifest.render_rational


def _load(path: str, *kinds: str):
    kind, value = manifest.load_file(path)
    if kinds and kind not in kinds:
        raise manifest.BadManifest(
            f"{path}: expected manifest kind in {kinds}, found {kind!r}",
            witness={"path": path, "kind": kind},
        )
    return kind, value


def _transport_chis(group, points, act) -> tuple[Fraction, int]:
    """chi2 and chi of the transport groupoid of ``group`` acting on ``points``."""
    groupoid = transport_groupoid(group, points, act)
    return groupoid_chi2(groupoid), len(_iso_partition(groupoid))


# -- handlers: (kind, value, args) -> (human lines, JSON report, ok) ---------------


def _validate(kind, value, args):
    lines = [f"OK: valid {kind}"]
    report = {"kind": kind, "valid": True}
    if kind == "category":
        objects, morphisms = len(value), len(value._ends.src)
        lines.append(f"objects: {objects}, morphisms: {morphisms}")
        report.update(objects=objects, morphisms=morphisms)
    if args.json:
        report["canonical"] = manifest._manifest(kind, value)
    return lines, report, True


def _classify(kind, cat, args):
    flags = dataclasses.asdict(classify(cat))
    return [f"{k}: {str(v).lower()}" for k, v in flags.items()], flags, True


def _skeleton(kind, cat, args):
    iso = iso_classes(cat)
    gamma = full_subcategory(cat, iso.representatives, name=f"sk({cat.name})")
    lines = ["classes:"] + [f"  {cls[0]}: {', '.join(cls)}" for cls in iso.classes]
    lines.append(f"skeleton objects: {', '.join(gamma.objects)}")
    report = {
        "classes": [list(cls) for cls in iso.classes],
        "skeleton": gamma,
        "aut_orders": {rep_: iso.aut[rep_].order for rep_ in iso.representatives},
    }
    return lines, report, True


def _number(key: str, fn):
    """A handler printing the one rational ``fn(category)`` under ``key``."""

    def handler(kind, cat, args):
        value = R(fn(cat))
        return [value], {key: value}, True

    return handler


def _weighting(kind, cat, args):
    w = coweighting(cat) if args.co else weighting(cat)
    ordered = sorted(w.values)
    report = {
        "side": w.side,
        "unique": w.unique,
        "values": {x: R(w.values[x]) for x in ordered},
        "total": R(w.total()),
    }
    return [", ".join(f"{x}: {v}" for x, v in report["values"].items())], report, True


def _paths(kind, cat, args):
    pc = path_counts(cat, n_max=args.max_dim)
    lines = ["c: " + ", ".join(str(c) for c in pc.counts)]
    lines += [f"{x}: " + ", ".join(str(c) for c in pc.starts[x]) for x in sorted(pc.starts)]
    lines.append(f"chi: {pc.euler_sum()}")
    report = {
        "counts": list(pc.counts),
        "starts": {x: list(v) for x, v in pc.starts.items()},
        "chi": pc.euler_sum(),
    }
    return lines, report, True


def _hocolim(kind, value, args):
    if kind == "diagram":
        cat = grothendieck(value).category
    elif kind == "pseudo_diagram":
        cat = grothendieck_pseudo(value)
    else:
        cat = hocolim_groups(value)
    try:
        chi = R(chi_L(cat))
    except NoEulerCharacteristic:
        chi = None
    # counted off a total's arrays: only --json names its objects and morphisms
    objects, morphisms = len(cat), len(cat._ends.src)
    lines = [
        f"objects: {objects}",
        f"morphisms: {morphisms}",
        f"chi_L: {'undefined' if chi is None else chi}",
    ]
    report = {"objects": objects, "morphisms": morphisms, "chi_L": chi}
    if args.json:
        report["category"] = cat
    return lines, report, True


def _check_formula(kind, diagram, args):
    spectrum = _load(args.spectrum, "spectrum")[1] if args.spectrum else None
    rep = check_hocolim_formula(diagram, invariant=args.invariant, spectrum=spectrum)
    verdict = "PASS" if rep.equal else "FAIL"
    lines = [
        f"invariant: {rep.invariant}",
        f"lhs (direct): {R(rep.lhs)}",
        f"rhs (formula): {R(rep.rhs)}",
        verdict,
    ]
    report = {
        "invariant": rep.invariant,
        "lhs": R(rep.lhs),
        "rhs": R(rep.rhs),
        "vertex_values": {i: R(v) for i, v in rep.vertex_values.items()},
        "verdict": verdict,
    }
    return lines, report, rep.equal


def _quotient(kind, action, args):
    q = quotient(action).category
    lines = [f"objects: {', '.join(q.objects)}", f"morphisms: {len(q._ends.src)}"]
    return lines, {"quotient": q}, True


def _complex_of_groups(kind, action, args):
    cplx = complex_of_groups(action).complex
    lines = [f"local[{x}]: order {cplx.local[x].order}" for x in cplx.base.objects]
    nontrivial = [
        f"twist[{b},{a}] = {g}"
        for (b, a), g in sorted(cplx.twists.items())
        if g != cplx.local[cplx.base.target(b)].identity
    ]
    lines += nontrivial if nontrivial else ["all twists trivial"]
    return lines, {"complex": manifest._complex_payload(cplx)}, True


def _transport(kind, action, args):
    space, ends = action.space, action.space._ends
    moving = next((m for m, x in enumerate(ends.src) if ends.ident[x] != m), None)
    if moving is not None:
        raise manifest.BadManifest("transport expects an action on a discrete scwol",
                                   witness={"morphism": space.morphism_names()[moving]})
    chi2, chi = _transport_chis(action.group, space.objects, action.on_objects)
    return [f"chi2: {R(chi2)}", f"chi: {chi}"], {"chi2": R(chi2), "chi": str(chi)}, True


def _chi_theorems(kind, action, args):
    rep = chi_theorems(action)
    verdict = "PASS" if rep.all_hold() else "FAIL"
    lines = [
        f"chi(X): {rep.chi_space}",
        f"chi(X/G): {rep.chi_quotient}",
        f"free on objects: {str(rep.free_on_objects).lower()}",
        f"chi2(hocolim F) via formula: {R(rep.chi2_hocolim_formula_route)}",
        f"chi2(hocolim F) via chi_L:  {R(rep.chi2_hocolim_direct_route)}",
        f"chi2 = chi(X)/|G|: {str(rep.chi2_equals_chi_over_order).lower()}",
        f"chi(hocolim F): {rep.chi_hocolim}",
        verdict,
    ]
    report = {
        "chi_space": str(rep.chi_space),
        "chi_quotient": str(rep.chi_quotient),
        "free_on_objects": rep.free_on_objects,
        "free_quotient_law": rep.free_quotient_law,
        "chi2_formula_route": R(rep.chi2_hocolim_formula_route),
        "chi2_direct_route": R(rep.chi2_hocolim_direct_route),
        "chi_hocolim": str(rep.chi_hocolim),
        "verdict": verdict,
    }
    return lines, report, rep.all_hold()


def _developability(kind, cplx, args):
    candidates = []
    for spec_str in args.candidate:
        try:
            chi_str, order_str = spec_str.split(",")
            candidates.append((int(chi_str), int(order_str)))
        except ValueError:
            raise manifest.BadManifest(
                f"candidate {spec_str!r} is not of the form CHI,ORDER",
                witness={"candidate": spec_str},
            ) from None
    rep = developability_check(cplx, candidates)
    lines = [f"chi2(hocolim F): {R(rep.chi2_hocolim)}"] + [
        f"chi(X) = {c.chi_space}, |G| = {c.group_order}: {c.verdict}" for c in rep.candidates
    ]
    report = {
        "chi2_hocolim": R(rep.chi2_hocolim),
        "candidates": [
            {"chi": c.chi_space, "order": c.group_order, "verdict": c.verdict}
            for c in rep.candidates
        ],
    }
    return lines, report, rep.all_pass()


def _haefliger(kind, cat, args):
    vals = {}
    for assignment in args.val:
        try:
            key, raw = assignment.split("=")
            vals[key] = manifest.parse_rational(raw)
        except ValueError:
            raise manifest.BadManifest(
                f"value {assignment!r} is not of the form OBJECT=p/q",
                witness={"value": assignment},
            ) from None
        except ZeroDivisionError:
            raise manifest.BadManifest(f"value {assignment!r} has a zero denominator",
                                       witness={"value": assignment}) from None
        if not cat.has_object(key):
            raise manifest.BadManifest(f"value {assignment!r} names no object of {cat.name}",
                                       witness={"value": assignment, "object": key})
    value = R(haefliger_chi(cat, vals))
    return [value], {"chi": value}, True


def _demo(kind, value, args):
    if args.name not in DEMOS:
        raise manifest.BadManifest(
            f"unknown demo {args.name!r}; available: {', '.join(sorted(DEMOS))}",
            witness={"demo": args.name},
        )
    lines: list[str] = []
    passed = DEMOS[args.name](lines)
    lines.append("PASS" if passed else "FAIL")
    return lines, {"demo": args.name, "lines": lines, "verdict": lines[-1]}, passed


# -- demos ------------------------------------------------------------------------------


def _demo_intro_pushout(out) -> bool:
    P = zoo.pushout_scwol()
    d = set_diagram(
        P,
        {"j": ["y", "z"], "k": ["s"], "l": ["s2"]},
        {"g": {"y": "s", "z": "s"}, "h": {"y": "s2", "z": "s2"}},
    )
    H = grothendieck(d).category
    direct = chi_scwol(H)
    rep = check_hocolim_formula(d, "chiL")
    out.append("homotopy pushout of {*} <- {y,z} -> {*'}")
    out.append(f"objects: {', '.join(H.objects)}")
    out.append(f"chi(hocolim) directly:    {direct}")
    out.append(f"chi via formula:          {R(rep.rhs)} = 1 + 1 - 2")
    out.append(f"chi_L route:              {R(rep.lhs)}")
    return direct == 0 and rep.equal and rep.rhs == Fraction(1 + 1 - 2)


def _demo_z2_circle(out) -> bool:
    action = randgen.circle_action()
    q, p = quotient(action).category, zoo.pushout_scwol()
    # x, y, z to j, k, l, a1, b1 to g, h and identities to identities, and back
    obj_map = {"x": "j", "y": "k", "z": "l"}
    mor_map = {"a1": "g", "b1": "h", **{q.identity[x]: p.identity[y] for x, y in obj_map.items()}}
    try:
        there = CatFunctor(q, p, obj_map, mor_map)
        back = CatFunctor(p, q, {y: x for x, y in obj_map.items()}, {n: m for m, n in mor_map.items()})
        iso_to_p = (there.then(back)._arrays == _identity_arrays(q)
                    and back.then(there)._arrays == _identity_arrays(p))
    except NotAFunctor:
        iso_to_p = False
    built = complex_of_groups(action)
    orders = [built.complex.local[x].order for x in built.complex.base.objects]
    rep = chi_theorems(action)
    out.append("Z/2 reflection of the combinatorial circle")
    out.append(f"quotient isomorphic to the pushout scwol: {str(iso_to_p).lower()}")
    out.append(f"local group orders over the quotient: {orders}")
    out.append(f"chi(X) = {rep.chi_space}, chi(X/G) = {rep.chi_quotient}")
    out.append(
        f"chi2(hocolim F) = {R(rep.chi2_hocolim_direct_route)}"
        f" = chi(X)/|G| = {R(Fraction(rep.chi_space, action.group.order))}"
    )
    out.append(f"chi(hocolim F) = {rep.chi_hocolim} = chi(X/G)")
    return iso_to_p and sorted(orders) == [1, 2, 2] and rep.all_hold()


def _demo_inclusion_exclusion(out) -> bool:
    sets = {"0": {"1", "2"}, "1": {"2", "3"}, "2": {"3"}}
    union = sets["0"] | sets["1"] | sets["2"]

    def intersection(label: str) -> set[str]:
        # an object "{0,2}" of the index names the sets it intersects
        return set.intersection(*(sets[j] for j in label[1:-1].split(",")))

    spectrum = builtin_spectrum("subsets_poset", q=2)
    formula = formula_value(
        spectrum, {label: Fraction(len(intersection(label))) for label in spectrum.index.objects}
    )
    poset = zoo.subsets_poset_opposite(2)
    elements = {label: sorted(intersection(label)) for label in poset.objects}
    maps = {m: {x: x for x in elements[s]} for m, s, _ in poset._arrows()
            if not poset.is_identity(m)}
    direct = _total_chi_L(set_diagram(poset, elements, maps))

    out.append("inclusion-exclusion for S0={1,2}, S1={2,3}, S2={3}")
    out.append(f"|S0 u S1 u S2| = {len(union)}")
    out.append(f"alternating intersection formula: {R(formula)}")
    out.append(f"chi_L of the homotopy colimit:    {R(direct)}")
    return formula == len(union) == direct


def _demo_transport_s3(out) -> bool:
    s3 = symmetric_group(3)
    pts = ("1", "2", "3")
    act = {
        g: {s: str(perm_of_label(g)[int(s) - 1] + 1) for s in pts} for g in s3.labels
    }
    chi2, chi = _transport_chis(s3, pts, act)
    out.append("transport groupoid of S3 acting on {1,2,3}")
    out.append(f"chi2 = {R(chi2)} = |S|/|G| = 3/6")
    out.append(f"chi  = {chi} = |S/G|")
    return chi2 == Fraction(1, 2) and chi == 1


def _demo_weightings(out) -> bool:
    ok = True
    cases = [
        ("parallel pair {j => k}", zoo.parallel_pair_scwol()),
        ("pushout scwol {k <- j -> l}", zoo.pushout_scwol()),
        ("terminal arrow {a -> t}", zoo.terminal_arrow_poset()),
        ("subsets_poset_op(1)", zoo.subsets_poset_opposite(1)),
        ("subsets_poset_op(2)", zoo.subsets_poset_opposite(2)),
        ("subsets_poset_op(3)", zoo.subsets_poset_opposite(3)),
    ]
    for label, cat in cases:
        w = weighting(cat)
        bar = bar_spectrum(cat).derived_weighting()
        agree = dict(w.values) == dict(bar.values)
        ok = ok and agree and w.unique
        rendering = ", ".join(f"{x}: {R(w.values[x])}" for x in sorted(w.values))
        out.append(f"{label}: {rendering}")
        out.append(f"  matches the bar-model weighting: {str(agree).lower()}")
    return ok


DEMOS = {
    "intro-pushout": _demo_intro_pushout,
    "z2-circle": _demo_z2_circle,
    "inclusion-exclusion": _demo_inclusion_exclusion,
    "transport-s3": _demo_transport_s3,
    "weightings": _demo_weightings,
}


# -- the command table ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Command:
    help: str
    handler: Callable[[Optional[str], Any, argparse.Namespace], tuple[list[str], dict, bool]]
    kinds: Optional[tuple[str, ...]]  # () any kind; None: no manifest, a demo NAME
    flags: Mapping[str, dict] = dataclasses.field(default_factory=dict)


CATEGORY, ACTION, COMPLEX = ("category",), ("action",), ("complex",)

COMMANDS = {
    "validate": Command("validate any manifest", _validate, ()),
    "classify": Command("structural predicates", _classify, CATEGORY),
    "skeleton": Command("iso classes and skeleton", _skeleton, CATEGORY),
    "chi": Command("Euler characteristic of a finite scwol", _number("chi", chi_scwol), CATEGORY),
    "chi2": Command("L2-Euler characteristic", _number("chi2", chi2_of), CATEGORY),
    "chil": Command("Leinster Euler characteristic", _number("chi_L", chi_L), CATEGORY),
    "weighting": Command(
        "weighting of a finite category", _weighting, CATEGORY,
        {"--co": dict(action="store_true", help="coweighting instead")},
    ),
    "paths": Command(
        "path counts of a finite scwol", _paths, CATEGORY, {"--max-dim": dict(type=int)}
    ),
    "hocolim": Command(
        "Grothendieck construction", _hocolim, ("diagram", "pseudo_diagram", "complex")
    ),
    "check-formula": Command(
        "homotopy colimit formula check", _check_formula, ("diagram", "pseudo_diagram"),
        {
            "--invariant": dict(choices=["chiL", "chi2", "chi_scwol"], default="chiL"),
            "--spectrum": dict(help="explicit cell-model spectrum manifest"),
        },
    ),
    "quotient": Command("quotient scwol of an action", _quotient, ACTION),
    "complex-of-groups": Command("complex of groups of an action", _complex_of_groups, ACTION),
    "hocolim-groups": Command("homotopy colimit of a complex", _hocolim, COMPLEX),
    "transport": Command("transport groupoid of a G-set action", _transport, ACTION),
    "chi-theorems": Command("Euler characteristic laws of an action", _chi_theorems, ACTION),
    "developability": Command(
        "necessary developability check", _developability, COMPLEX,
        {"--candidate": dict(action="append", default=[], metavar="CHI,ORDER",
                             help="candidate chi(X) and |G| (repeatable)")},
    ),
    "haefliger": Command(
        "lower-link Euler characteristic formula", _haefliger, CATEGORY,
        {"--val": dict(action="append", default=[], metavar="OBJECT=P/Q",
                       help="chi of the classifying space of the local group (repeatable)")},
    ),
    "demo": Command("reproduce a named worked example", _demo, None),
}


# -- driver -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulcat",
        description="Exact Euler characteristics of finite categories, "
        "homotopy colimits, and complexes of groups.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.kinds is None:
            p.add_argument("name", help=", ".join(sorted(DEMOS)))
        else:
            p.add_argument("file")
        for flag, options in command.flags.items():
            p.add_argument(flag, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses for every call in this process.  Parsing
    leaves it unchanged: each call gets a fresh namespace, and ``append``
    options copy their ``[]`` default before appending."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        kind, value = (None, None) if command.kinds is None else _load(args.file, *command.kinds)
        lines, report, ok = command.handler(kind, value, args)
        if args.json:
            print(manifest._dumps(report))
        else:
            for line in lines:
                print(line)
    except (EulcatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
