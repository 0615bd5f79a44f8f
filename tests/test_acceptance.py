"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single `[acceptance N] ... PASS` line on success (pytest
shows the failure otherwise), and every comparison is exact rational
equality — no tolerances anywhere.
"""

from fractions import Fraction
from random import Random

import pytest

from eulcat import randgen, zoo
from eulcat.cli import main
from eulcat.eulerchar import HypothesisNotMet, chi2_free_EI, chi_scwol, groupoid_chi2
from eulcat.fincat import (
    classify,
    iso_classes,
    path_counts,
    skeleton,
)
from eulcat.groupact import (
    chi_theorems,
    complex_of_groups,
    developability_check,
    one_arrow_complex,
    quotient,
    skeletal_reduction,
    transport_groupoid,
)
from eulcat.groups import GroupHom, cyclic_group, klein_four_group, symmetric_group, trivial_group
from eulcat.hocolim import (
    bar_spectrum,
    builtin_spectrum,
    check_hocolim_formula,
    formula_value,
    grothendieck,
    set_diagram,
)
from eulcat.ratlin import chi_L, weighting

from helpers import (
    are_isomorphic,
    assert_lawful,
    gamma_one,
    gamma_two,
    monoid_z2_mult,
    nonidentity_paths,
)


def report(number: int, text: str) -> None:
    print(f"[acceptance {number:2d}] {text}: PASS")


def test_01_weighting_goldens():
    assert dict(weighting(zoo.parallel_pair_scwol()).values) == {"j": -1, "k": 1}
    assert dict(weighting(zoo.pushout_scwol()).values) == {"j": -1, "k": 1, "l": 1}
    for q in (1, 2, 3):
        w = weighting(zoo.subsets_poset_opposite(q))
        for label, value in w.values.items():
            size = label.count(",") + 1
            assert value == Fraction((-1) ** (size - 1))

    rng = Random(101)
    for _ in range(50):
        cat = randgen.random_scwol(rng, max_objects=8)
        gamma = skeleton(cat).category
        assert dict(bar_spectrum(cat).derived_weighting().values) == dict(
            weighting(gamma).values
        )
    report(1, "weighting goldens and 50 bar-model cross-checks")


def test_02_chi_l_goldens():
    assert chi_L(monoid_z2_mult()) == Fraction(1, 2)
    assert chi_L(zoo.one_object_category(cyclic_group(2))) == Fraction(1, 2)
    for n in range(1, 25):
        assert chi_L(zoo.one_object_category(cyclic_group(n))) == Fraction(1, n)
    for extra in (klein_four_group(), symmetric_group(3)):
        assert chi_L(zoo.one_object_category(extra)) == Fraction(1, extra.order)

    gamma1 = gamma_one()
    assert chi_L(gamma1) == Fraction(1, 4)
    assert chi2_free_EI(gamma1) == Fraction(1, 4)
    with pytest.raises(HypothesisNotMet):
        chi2_free_EI(gamma_two())
    report(2, "chi_L goldens, group categories to order 24, free-EI gate")


def _formula_instances():
    rng = Random(202)
    for _ in range(170):
        yield randgen.random_strict_diagram(rng)
    for _ in range(40):
        yield randgen.random_groupoid_diagram(
            rng, max_index_objects=5, max_vertex_objects=4, max_group_order=4
        )


def test_03_and_04_formula_and_preservation():
    checked = 0
    for d in _formula_instances():
        rep = check_hocolim_formula(d, "chiL")
        assert rep.equal, rep
        flags = classify(grothendieck(d).category)
        assert flags.is_directly_finite
        assert flags.is_EI
        checked += 1
    assert checked >= 200
    report(3, f"homotopy colimit formula, exact on {checked} random instances")
    report(4, f"direct finiteness and EI preserved on all {checked} instances")


def test_05_intro_pushout():
    d = set_diagram(
        zoo.pushout_scwol(),
        {"j": ["y", "z"], "k": ["s"], "l": ["s2"]},
        {"g": {"y": "s", "z": "s"}, "h": {"y": "s2", "z": "s2"}},
    )
    total = assert_lawful(grothendieck(d).category)
    assert chi_scwol(total) == 0
    rep = check_hocolim_formula(d, "chiL")
    assert rep.equal and rep.lhs == 0 and rep.rhs == 1 + 1 - 2
    assert main(["demo", "intro-pushout"]) == 0
    report(5, "intro pushout: chi = 0 = 1 + 1 - 2 by both routes")


def test_06_z2_circle_end_to_end():
    action = randgen.circle_action()
    q = quotient(action)
    assert are_isomorphic(q.category, zoo.pushout_scwol())

    built = complex_of_groups(action)
    orders = sorted(built.complex.local[x].order for x in built.complex.base.objects)
    assert orders == [1, 2, 2]
    for (b, a), tw in built.complex.twists.items():
        assert tw == built.complex.local[built.complex.base.target(b)].identity

    rep = chi_theorems(action)
    assert rep.chi_space == 0
    assert rep.chi_quotient == 1
    assert rep.chi2_hocolim_direct_route == Fraction(0) == Fraction(rep.chi_space, 2)
    assert rep.chi_hocolim == 1 == rep.chi_quotient
    assert rep.all_hold()
    report(6, "Z/2 circle: quotient P, complex Z/2 <- 1 -> Z/2, chi laws")


def test_07_free_quotient_law():
    rng = Random(707)
    for i in range(100):
        action = randgen.random_free_action(rng)
        assert action.is_free_on_objects()
        q = quotient(action)
        assert chi_scwol(q.category) * action.group.order == chi_scwol(action.space), i
    report(7, "chi(X/G) . |G| = chi(X) on 100 random free actions")


def test_08_path_orbit_bijection():
    rng = Random(808)
    instances = 0
    for _ in range(25):
        action = randgen.random_action(rng)
        cat = action.space
        q = quotient(action)
        depth = len(path_counts(cat).counts) + 1
        for n in range(1, depth + 1):
            orbits = {
                frozenset(
                    tuple(action.act_mor(g, m) for m in path)
                    for g in action.group.labels
                )
                for path in nonidentity_paths(cat, n)
            }
            assert len(orbits) == len(nonidentity_paths(q.category, n)), (n, cat.name)
        instances += 1
    report(8, f"path-orbit bijection at every length on {instances} actions")


def test_09_skeletal_reduction_on_fattened_instances():
    fat_circle = randgen.inflate_action(
        randgen.circle_action(), {"x": 2, "x2": 2, "y": 1, "z": 1}
    )
    rep = skeletal_reduction(fat_circle)
    assert rep.report.all_hold()
    assert len(rep.action.space.objects) == 4
    assert are_isomorphic(quotient(rep.action).category, zoo.pushout_scwol())

    rng = Random(909)
    fattened = 0
    while fattened < 15:
        action = randgen.random_action(rng)
        copies = {}
        cloned = False
        for orb in action.object_orbits():
            c = rng.choice([1, 2, 2])
            cloned = cloned or c > 1
            for x in orb:
                copies[x] = c
        if not cloned:
            continue
        fat = randgen.inflate_action(action, copies)
        red = skeletal_reduction(fat)
        assert red.report.all_hold()
        assert classify(red.action.space).is_skeletal
        fattened += 1
    report(9, "all skeletal-reduction conclusions on 15 fattened instances + circle")


def test_10_transport_groupoids():
    s3 = symmetric_group(3)
    pts = ("1", "2", "3")
    from eulcat.groups import perm_of_label

    act = {g: {s: str(perm_of_label(g)[int(s) - 1] + 1) for s in pts} for g in s3.labels}
    groupoid = transport_groupoid(s3, pts, act)
    assert groupoid_chi2(groupoid) == Fraction(1, 2)
    assert len(iso_classes(groupoid).classes) == 1

    rng = Random(1010)
    pool = [cyclic_group(n) for n in range(1, 13)] + [klein_four_group(), symmetric_group(3)]
    for i in range(30):
        group = rng.choice(pool)
        elements, action = randgen.random_gset(rng, group)
        groupoid = transport_groupoid(group, elements, action)
        assert groupoid_chi2(groupoid) == Fraction(len(elements), group.order), i
        orbit_count = len(
            {frozenset(action[g][s] for g in group.labels) for s in elements}
        )
        assert len(iso_classes(groupoid).classes) == orbit_count, i
    report(10, "transport groupoids: chi2 = |S|/|G| and chi = |S/G| on 30 G-sets")


def test_11_inclusion_exclusion_and_coequalizers():
    rng = Random(1111)
    spectra = {q: builtin_spectrum("subsets_poset", q=q) for q in (1, 2, 3)}
    for i in range(200):
        q = rng.randint(1, 3)
        universe = list(range(rng.randint(1, 8)))
        sets = {
            str(j): {x for x in universe if rng.random() < 0.5} for j in range(q + 1)
        }
        union = set().union(*sets.values())
        spectrum = spectra[q]
        vals = {}
        for label in spectrum.index.objects:
            members = label[1:-1].split(",")
            vals[label] = Fraction(len(set.intersection(*(sets[j] for j in members))))
        assert formula_value(spectrum, vals) == len(union), i

    for i in range(30):
        size_a = rng.randint(1, 3)
        size_b = rng.randint(2 * size_a, 2 * size_a + 3)
        a_elems = [f"a{k}" for k in range(size_a)]
        b_elems = [f"b{k}" for k in range(size_b)]
        slots = rng.sample(range(size_b), 2 * size_a)
        f_map = {a_elems[k]: b_elems[slots[k]] for k in range(size_a)}
        g_map = {a_elems[k]: b_elems[slots[size_a + k]] for k in range(size_a)}
        d = set_diagram(
            zoo.parallel_pair_scwol(),
            {"j": a_elems, "k": b_elems},
            {"f0": f_map, "f1": g_map},
        )
        assert chi_L(grothendieck(d).category) == len(b_elems) - len(a_elems), i
    report(11, "inclusion-exclusion on 200 set systems, 30 coequalizers")


def test_12_haefliger_formula():
    from eulcat.groupact import haefliger_chi

    rng = Random(1212)
    for _ in range(50):
        cat = randgen.random_scwol(rng, max_objects=7)
        gamma = skeleton(cat).category
        vals = {x: Fraction(1) for x in gamma.objects}
        assert haefliger_chi(cat, vals) == chi_scwol(cat)

    for _ in range(20):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        got = haefliger_chi(zoo.pushout_scwol(), {"j": a, "k": b, "l": c})
        assert got == b + c - a
    report(12, "Haefliger formula: 50 trivial-local scwols, symbolic pushout")


def test_13_developability_verdicts():
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    one = trivial_group()

    chi_zero_complex = one_arrow_complex(z2, z4, GroupHom(z2, z4, {"0": "0", "1": "2"}))
    rep = developability_check(chi_zero_complex, [(0, 1), (0, 4), (0, 12)])
    assert rep.chi2_hocolim == Fraction(1, 4)
    assert all(c.verdict == "FAIL" for c in rep.candidates)

    half_complex = one_arrow_complex(one, z2, GroupHom(one, z2, {"0": "0"}))
    rep = developability_check(half_complex, [(2, 4)])
    assert rep.candidates[0].verdict == "PASS"

    rep = developability_check(half_complex, [(1, 3)])
    assert rep.candidates[0].verdict == "FAIL"
    report(13, "developability verdicts reproduce the worked examples")
