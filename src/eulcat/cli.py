"""Command-line front end.

Exit codes: 0 success / all checks PASS, 1 computed but some check FAILed,
2 invalid input.  Every number is printed exactly, as `p/q` (or a plain
integer when the denominator is 1); ``--json`` emits the same numbers as
identical strings in a machine-readable report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import manifest, randgen, zoo
from .errors import EulcatError
from .eulerchar import chi_scwol, groupoid_chi2
from .fincat import FinCat, are_isomorphic, classify, iso_classes, path_counts, skeleton
from .groupact import (
    ComplexOfGroups,
    ScwolAction,
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
    PseudoDiagram,
    StrictDiagram,
    bar_spectrum,
    builtin_spectrum,
    check_hocolim_formula,
    chi2_of,
    formula_value,
    grothendieck,
    grothendieck_pseudo,
    set_diagram,
)
from .ratlin import chi_L, coweighting, weighting

R = manifest.render_rational


def _emit(args, human_lines, report: dict) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _load(path: str, *kinds: str):
    kind, value = manifest.load_file(path)
    if kinds and kind not in kinds:
        raise manifest.BadManifest(
            f"{path}: expected manifest kind in {kinds}, found {kind!r}"
        )
    return kind, value


# -- simple category queries -----------------------------------------------------


def cmd_validate(args) -> int:
    kind, value = _load(args.file)
    lines = [f"OK: valid {kind}"]
    report = {"kind": kind, "valid": True}
    if kind == "category":
        lines.append(f"objects: {len(value.objects)}, morphisms: {len(value.morphisms)}")
        report["objects"] = len(value.objects)
        report["morphisms"] = len(value.morphisms)
    if args.json:
        report["canonical"] = manifest.serialize(kind, value)
    _emit(args, lines, report)
    return 0


def cmd_classify(args) -> int:
    _, cat = _load(args.file, "category")
    rep = classify(cat)
    flags = {
        "is_scwol": rep.is_scwol,
        "is_EI": rep.is_EI,
        "is_directly_finite": rep.is_directly_finite,
        "is_groupoid": rep.is_groupoid,
        "is_skeletal": rep.is_skeletal,
        "is_connected": rep.is_connected,
    }
    _emit(args, [f"{k}: {str(v).lower()}" for k, v in flags.items()], flags)
    return 0


def cmd_skeleton(args) -> int:
    _, cat = _load(args.file, "category")
    sk = skeleton(cat)
    iso = iso_classes(cat)
    lines = ["classes:"]
    classes = []
    for cls in iso.classes:
        lines.append(f"  {cls[0]}: {', '.join(cls)}")
        classes.append(list(cls))
    lines.append(f"skeleton objects: {', '.join(sk.category.objects)}")
    report = {
        "classes": classes,
        "skeleton": manifest.category_payload(sk.category),
        "aut_orders": {rep_: iso.aut[rep_].order for rep_ in iso.representatives},
    }
    _emit(args, lines, report)
    return 0


def cmd_chi(args) -> int:
    _, cat = _load(args.file, "category")
    value = chi_scwol(cat)
    _emit(args, [str(value)], {"chi": str(value)})
    return 0


def cmd_chi2(args) -> int:
    _, cat = _load(args.file, "category")
    value = chi2_of(cat)
    _emit(args, [R(value)], {"chi2": R(value)})
    return 0


def cmd_chil(args) -> int:
    _, cat = _load(args.file, "category")
    value = chi_L(cat)
    _emit(args, [R(value)], {"chi_L": R(value)})
    return 0


def cmd_weighting(args) -> int:
    _, cat = _load(args.file, "category")
    w = coweighting(cat) if args.co else weighting(cat)
    ordered = sorted(w.values)
    line = ", ".join(f"{x}: {R(w.values[x])}" for x in ordered)
    report = {
        "side": w.side,
        "unique": w.unique,
        "values": {x: R(w.values[x]) for x in ordered},
        "total": R(w.total()),
    }
    _emit(args, [line], report)
    return 0


def cmd_paths(args) -> int:
    _, cat = _load(args.file, "category")
    pc = path_counts(cat, n_max=args.max_dim)
    lines = ["c: " + ", ".join(str(c) for c in pc.counts)]
    for x in sorted(pc.starts):
        lines.append(f"{x}: " + ", ".join(str(c) for c in pc.starts[x]))
    lines.append(f"chi: {pc.euler_sum()}")
    report = {
        "counts": list(pc.counts),
        "starts": {x: list(v) for x, v in pc.starts.items()},
        "chi": pc.euler_sum(),
    }
    _emit(args, lines, report)
    return 0


# -- homotopy colimits -------------------------------------------------------------


def _total_category(kind: str, value) -> FinCat:
    if kind == "diagram":
        return grothendieck(value, verify=True).category
    if kind == "pseudo_diagram":
        return grothendieck_pseudo(value)
    return hocolim_groups(value)


def cmd_hocolim(args) -> int:
    kind, value = _load(args.file, "diagram", "pseudo_diagram", "complex")
    cat = _total_category(kind, value)
    lines = [
        f"objects: {len(cat.objects)}",
        f"morphisms: {len(cat.morphisms)}",
    ]
    report = {"objects": len(cat.objects), "morphisms": len(cat.morphisms)}
    try:
        value_l = chi_L(cat)
        lines.append(f"chi_L: {R(value_l)}")
        report["chi_L"] = R(value_l)
    except EulcatError:
        lines.append("chi_L: undefined")
        report["chi_L"] = None
    if args.json:
        report["category"] = manifest.category_payload(cat)
    _emit(args, lines, report)
    return 0


def cmd_check_formula(args) -> int:
    kind, value = _load(args.file, "diagram", "pseudo_diagram")
    spectrum = None
    if args.spectrum:
        _, spectrum = _load(args.spectrum, "spectrum")
    rep = check_hocolim_formula(value, invariant=args.invariant, spectrum=spectrum)
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
    _emit(args, lines, report)
    return 0 if rep.equal else 1


# -- group actions -------------------------------------------------------------------


def cmd_quotient(args) -> int:
    _, action = _load(args.file, "action")
    q = quotient(action)
    lines = [
        f"objects: {', '.join(q.category.objects)}",
        f"morphisms: {len(q.category.morphisms)}",
    ]
    report = {"quotient": manifest.category_payload(q.category)}
    _emit(args, lines, report)
    return 0


def cmd_complex_of_groups(args) -> int:
    _, action = _load(args.file, "action")
    out = complex_of_groups(action)
    cplx = out.complex
    lines = []
    for x in cplx.base.objects:
        lines.append(f"local[{x}]: order {cplx.local[x].order}")
    nontrivial = [
        f"twist[{b},{a}] = {g}"
        for (b, a), g in sorted(cplx.twists.items())
        if g != cplx.local[cplx.base.target(b)].identity
    ]
    lines += nontrivial if nontrivial else ["all twists trivial"]
    report = {"complex": manifest.complex_payload(cplx)}
    _emit(args, lines, report)
    return 0


def cmd_hocolim_groups(args) -> int:
    _, cplx = _load(args.file, "complex")
    cat = hocolim_groups(cplx)
    value = chi_L(cat)
    lines = [
        f"objects: {len(cat.objects)}",
        f"morphisms: {len(cat.morphisms)}",
        f"chi_L: {R(value)}",
    ]
    report = {
        "objects": len(cat.objects),
        "morphisms": len(cat.morphisms),
        "chi_L": R(value),
    }
    if args.json:
        report["category"] = manifest.category_payload(cat)
    _emit(args, lines, report)
    return 0


def cmd_transport(args) -> int:
    _, action = _load(args.file, "action")
    if any(not action.space.is_identity(m.name) for m in action.space.morphisms):
        raise manifest.BadManifest("transport expects an action on a discrete scwol")
    act = {
        g: {x: action.act_obj(g, x) for x in action.space.objects}
        for g in action.group.labels
    }
    groupoid = transport_groupoid(action.group, action.space.objects, act)
    chi2 = groupoid_chi2(groupoid)
    chi = len(iso_classes(groupoid).classes)
    lines = [f"chi2: {R(chi2)}", f"chi: {chi}"]
    _emit(args, lines, {"chi2": R(chi2), "chi": str(chi)})
    return 0


def cmd_chi_theorems(args) -> int:
    _, action = _load(args.file, "action")
    rep = chi_theorems(action)
    lines = [
        f"chi(X): {rep.chi_space}",
        f"chi(X/G): {rep.chi_quotient}",
        f"free on objects: {str(rep.free_on_objects).lower()}",
        f"chi2(hocolim F) via formula: {R(rep.chi2_hocolim_formula_route)}",
        f"chi2(hocolim F) via chi_L:  {R(rep.chi2_hocolim_direct_route)}",
        f"chi2 = chi(X)/|G|: {str(rep.chi2_equals_chi_over_order).lower()}",
        f"chi(hocolim F): {rep.chi_hocolim}",
        "PASS" if rep.all_hold() else "FAIL",
    ]
    report = {
        "chi_space": str(rep.chi_space),
        "chi_quotient": str(rep.chi_quotient),
        "free_on_objects": rep.free_on_objects,
        "free_quotient_law": rep.free_quotient_law,
        "chi2_formula_route": R(rep.chi2_hocolim_formula_route),
        "chi2_direct_route": R(rep.chi2_hocolim_direct_route),
        "chi_hocolim": str(rep.chi_hocolim),
        "verdict": "PASS" if rep.all_hold() else "FAIL",
    }
    _emit(args, lines, report)
    return 0 if rep.all_hold() else 1


def cmd_developability(args) -> int:
    _, cplx = _load(args.file, "complex")
    candidates = []
    for spec_str in args.candidate:
        try:
            chi_str, order_str = spec_str.split(",")
            candidates.append((int(chi_str), int(order_str)))
        except ValueError:
            raise manifest.BadManifest(
                f"candidate {spec_str!r} is not of the form CHI,ORDER"
            ) from None
    rep = developability_check(cplx, candidates)
    lines = [f"chi2(hocolim F): {R(rep.chi2_hocolim)}"]
    for cand in rep.candidates:
        lines.append(
            f"chi(X) = {cand.chi_space}, |G| = {cand.group_order}: {cand.verdict}"
        )
    report = {
        "chi2_hocolim": R(rep.chi2_hocolim),
        "candidates": [
            {"chi": c.chi_space, "order": c.group_order, "verdict": c.verdict}
            for c in rep.candidates
        ],
    }
    _emit(args, lines, report)
    return 0 if rep.all_pass() else 1


def cmd_haefliger(args) -> int:
    _, cat = _load(args.file, "category")
    vals = {}
    for assignment in args.val:
        try:
            key, raw = assignment.split("=")
            vals[key] = manifest.parse_rational(raw)
        except ValueError:
            raise manifest.BadManifest(
                f"value {assignment!r} is not of the form OBJECT=p/q"
            ) from None
    value = haefliger_chi(cat, vals)
    _emit(args, [R(value)], {"chi": R(value)})
    return 0


# -- demos ------------------------------------------------------------------------------


def _demo_intro_pushout(out) -> bool:
    P = zoo.pushout_scwol()
    d = set_diagram(
        P,
        {"j": ["y", "z"], "k": ["s"], "l": ["s2"]},
        {"g": {"y": "s", "z": "s"}, "h": {"y": "s2", "z": "s2"}},
    )
    H = grothendieck(d, verify=True).category
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
    q = quotient(action)
    iso_to_p = are_isomorphic(q.category, zoo.pushout_scwol())
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
    spectrum = builtin_spectrum("subsets_poset", q=2)
    vals = {}
    for label in spectrum.index.objects:
        members = label[1:-1].split(",")
        inter = set.intersection(*(sets[j] for j in members))
        vals[label] = Fraction(len(inter))
    formula = formula_value(spectrum, vals)

    poset = zoo.subsets_poset_opposite(2)
    elements = {
        label: sorted(set.intersection(*(sets[j] for j in label[1:-1].split(","))))
        for label in poset.objects
    }
    maps = {
        m.name: {x: x for x in elements[m.source]}
        for m in poset.morphisms
        if not poset.is_identity(m.name)
    }
    d = set_diagram(poset, elements, maps)
    direct = chi_L(grothendieck(d).category)

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
    groupoid = transport_groupoid(s3, pts, act)
    chi2 = groupoid_chi2(groupoid)
    chi = len(iso_classes(groupoid).classes)
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


def cmd_demo(args) -> int:
    if args.name not in DEMOS:
        raise manifest.BadManifest(
            f"unknown demo {args.name!r}; available: {', '.join(sorted(DEMOS))}"
        )
    lines: list[str] = []
    passed = DEMOS[args.name](lines)
    lines.append("PASS" if passed else "FAIL")
    _emit(args, lines, {"demo": args.name, "lines": lines, "verdict": lines[-1]})
    return 0 if passed else 1


# -- driver -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulcat",
        description="Exact Euler characteristics of finite categories, "
        "homotopy colimits, and complexes of groups.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, help="validate any manifest").add_argument("file")
    add("classify", cmd_classify, help="structural predicates").add_argument("file")
    add("skeleton", cmd_skeleton, help="iso classes and skeleton").add_argument("file")
    add("chi", cmd_chi, help="Euler characteristic of a finite scwol").add_argument("file")
    add("chi2", cmd_chi2, help="L2-Euler characteristic").add_argument("file")
    add("chil", cmd_chil, help="Leinster Euler characteristic").add_argument("file")

    p = add("weighting", cmd_weighting, help="weighting of a finite category")
    p.add_argument("file")
    p.add_argument("--co", action="store_true", help="coweighting instead")

    p = add("paths", cmd_paths, help="path counts of a finite scwol")
    p.add_argument("file")
    p.add_argument("--max-dim", type=int, default=None)

    add("hocolim", cmd_hocolim, help="Grothendieck construction").add_argument("file")

    p = add("check-formula", cmd_check_formula, help="homotopy colimit formula check")
    p.add_argument("file")
    p.add_argument("--invariant", choices=["chiL", "chi2", "chi_scwol"], default="chiL")
    p.add_argument("--spectrum", help="explicit cell-model spectrum manifest")

    add("quotient", cmd_quotient, help="quotient scwol of an action").add_argument("file")
    add(
        "complex-of-groups",
        cmd_complex_of_groups,
        help="complex of groups of an action",
    ).add_argument("file")
    add(
        "hocolim-groups", cmd_hocolim_groups, help="homotopy colimit of a complex"
    ).add_argument("file")
    add(
        "transport", cmd_transport, help="transport groupoid of a G-set action"
    ).add_argument("file")
    add(
        "chi-theorems", cmd_chi_theorems, help="Euler characteristic laws of an action"
    ).add_argument("file")

    p = add("developability", cmd_developability, help="necessary developability check")
    p.add_argument("file")
    p.add_argument(
        "--candidate",
        action="append",
        default=[],
        metavar="CHI,ORDER",
        help="candidate chi(X) and |G| (repeatable)",
    )

    p = add("haefliger", cmd_haefliger, help="lower-link Euler characteristic formula")
    p.add_argument("file")
    p.add_argument(
        "--val",
        action="append",
        default=[],
        metavar="OBJECT=P/Q",
        help="chi of the classifying space of the local group (repeatable)",
    )

    add("demo", cmd_demo, help="reproduce a named worked example").add_argument(
        "name", help=", ".join(sorted(DEMOS))
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses for every call in this process.  Parsing
    leaves it unchanged: each call gets a fresh namespace, and ``append``
    options copy their ``[]`` default before appending."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (EulcatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
