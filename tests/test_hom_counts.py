"""chi_L of every homotopy colimit is read off its hom counts.

``hocolim._total_chi_L`` reads the hom-count rows of the Grothendieck
construction of a strict or pseudo diagram off the diagram, and
``groupact._hocolim_chi_L`` those of the homotopy colimit of a complex of
groups off the complex: |Hom(s, t)| is the sum of |G_t| over a: s -> t
(Bridson-Haefliger III.C).  Each is compared with ``chi_L`` of the built
total, which stays the independent reference, and with two special cases
of the homotopy colimit formula (arXiv:1007.3868): homotopy pushouts of
sets, by inclusion-exclusion, and homotopy orbits of trivial actions.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulcat import fincat, groupact, hocolim, randgen, ratlin, zoo
from eulcat.groupact import (
    chi_theorems,
    complex_of_groups,
    complex_to_pseudo_diagram,
    developability_check,
    hocolim_groups,
    skeletal_reduction,
    trivial_action,
)
from eulcat.hocolim import (
    PseudoDiagram,
    check_hocolim_formula,
    constant_diagram,
    grothendieck,
    grothendieck_pseudo,
    set_diagram,
)
from eulcat.ratlin import NoEulerCharacteristic, chi_L

from helpers import count_calls, s3_flag_action, split_idempotent
from strategies import actions, free_actions, groups, noncentral_actions, scwols, strict_diagrams


def assert_reads_the_total(module, route, arg, total):
    """The rows, classes and name ``route(arg)`` hands ``_chi_L_of_rows``
    (looked up on ``module``) are those of ``total``, entry by entry, and
    its value is ``chi_L(total)``."""
    seen = {}
    real = ratlin._chi_L_of_rows

    def capture(rows, reps_of, name):
        seen.update(rows=rows, reps=list(reps_of()), name=name)
        return real(rows, reps_of, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_chi_L_of_rows", capture)
        value = route(arg)
    assert seen["rows"] == fincat._count_rows(total)
    assert seen["reps"] == ratlin._class_reps(total)()
    assert seen["name"] == total.name
    assert value == chi_L(total)


def assert_complex_route(cplx):
    assert_reads_the_total(groupact, groupact._hocolim_chi_L, cplx, hocolim_groups(cplx))


def assert_pseudo_route(p):
    total = grothendieck_pseudo(p)
    assert_reads_the_total(hocolim, hocolim._total_chi_L, p, total)
    assert check_hocolim_formula(p, "chiL").lhs == chi_L(total)


class TestComplexOfGroups:
    @settings(max_examples=25, deadline=None)
    @given(actions)
    @example(randgen.cone_action(randgen.circle_action()))
    def test_actions(self, action):
        assert_complex_route(complex_of_groups(action).complex)

    @settings(max_examples=15, deadline=None)
    @given(free_actions)
    def test_free_actions(self, action):
        assert_complex_route(complex_of_groups(action).complex)

    @settings(max_examples=10, deadline=None)
    @given(noncentral_actions)
    def test_noncentral_actions(self, drawn):
        action, h = drawn
        assert_complex_route(complex_of_groups(action, h_elements=h).complex)


class TestPseudoDiagrams:
    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_strict_diagrams_viewed_as_pseudo(self, d):
        assert_pseudo_route(PseudoDiagram.from_strict(d))

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_complexes_of_groups(self, action):
        assert_pseudo_route(complex_to_pseudo_diagram(complex_of_groups(action).complex))

    @settings(max_examples=10, deadline=None)
    @given(noncentral_actions)
    def test_noncentral_complexes(self, drawn):
        action, h = drawn
        assert_pseudo_route(complex_to_pseudo_diagram(complex_of_groups(action, h_elements=h).complex))

    def test_still_cyclic_condensate(self, monkeypatch):
        """A non-EI vertex leaves the condensate cyclic: elimination on the
        diagram's rows gives the total's value, and with no solution the
        total's message and witness."""
        p = PseudoDiagram.from_strict(constant_diagram(zoo.pushout_scwol(), split_idempotent()))
        assert_pseudo_route(p)
        monkeypatch.setattr(ratlin, "solve_linear", lambda a, b: None)
        with pytest.raises(NoEulerCharacteristic) as want:
            chi_L(grothendieck_pseudo(p))
        with pytest.raises(NoEulerCharacteristic) as got:
            check_hocolim_formula(p, "chiL")
        assert str(got.value) == str(want.value) == f"hocolim({p.index.name}) admits no weighting"
        assert got.value.witness == want.value.witness


@st.composite
def spans(draw):
    """Sets X, Y, Z with maps g: X -> Y and h: X -> Z, as drawn sizes and
    images."""
    x = [f"x{i}" for i in range(draw(st.integers(0, 3)))]
    y = [f"y{i}" for i in range(draw(st.integers(1, 3)))]
    z = [f"z{i}" for i in range(draw(st.integers(1, 3)))]
    g = {e: draw(st.sampled_from(y)) for e in x}
    h = {e: draw(st.sampled_from(z)) for e in x}
    return x, y, z, g, h


class TestHomotopyPushout:
    @settings(max_examples=40, deadline=None)
    @given(spans())
    def test_inclusion_exclusion(self, span):
        """chi_L of the homotopy pushout of Y <- X -> Z is |Y| + |Z| - |X|,
        on both sides of the formula, through the pseudo view and through
        the built total."""
        x, y, z, g, h = span
        d = set_diagram(zoo.pushout_scwol(), {"j": x, "k": y, "l": z}, {"g": g, "h": h})
        want = len(y) + len(z) - len(x)
        rep = check_hocolim_formula(d, "chiL")
        assert rep.lhs == rep.rhs == want
        assert check_hocolim_formula(PseudoDiagram.from_strict(d), "chiL").lhs == want
        assert chi_L(grothendieck(d).category) == want


class TestHomotopyOrbit:
    @settings(max_examples=25, deadline=None)
    @given(groups, scwols)
    def test_trivial_action(self, group, space):
        """For G acting trivially on X the homotopy colimit is X x BG, whose
        chi_L is chi_L(X) / |G|."""
        rep = chi_theorems(trivial_action(group, space))
        assert rep.chi2_hocolim_direct_route == Fraction(1, group.order) * chi_L(space)


REPORT_ACTIONS = {
    "circle": randgen.circle_action,
    "cone": lambda: randgen.cone_action(randgen.circle_action()),
    "reflection": lambda: randgen.reflection_action(4),
    "s3-flag": lambda: s3_flag_action()[0],
}


@pytest.mark.parametrize("make", REPORT_ACTIONS.values(), ids=REPORT_ACTIONS.keys())
def test_reports_build_no_total(monkeypatch, make):
    """``chi_theorems``, ``developability_check`` and ``skeletal_reduction``
    read chi_L off the hom counts: no homotopy colimit is built."""
    action = make()
    cplx = complex_of_groups(action).complex
    counts = {"hocolim_groups": 0, "_grothendieck": 0}
    count_calls(monkeypatch, counts)
    assert chi_theorems(action).all_hold()
    developability_check(cplx, [(0, 2)])
    assert skeletal_reduction(action).report.all_hold()
    assert counts == {"hocolim_groups": 0, "_grothendieck": 0}
