"""Raises that no other test reaches, each pinned by class and message.

The builders' argument checks (``zoo.polygon_scwol``, ``zoo.cone``,
``randgen.rotation_action``, ``reflection_action`` and ``inflate_action``),
a ragged ``RatMatrix``, ``FinGroup.index`` of a non-element, and the
cross-check of ``ratlin._chi_L_of_rows`` on a condensate that stays cyclic.
By Leinster's Lemma 1.3 a weighting w and a coweighting v of any matrix Z
have equal sums (sum w = v^T Z w = sum v), so no rows reach that last raise
while the elimination solves exactly; the test plants a wrong coweighting.
"""

from fractions import Fraction

import pytest

from eulcat import randgen, ratlin, zoo
from eulcat.errors import InvariantViolation
from eulcat.groups import cyclic_group
from eulcat.ratlin import DimensionMismatch, RatMatrix


@pytest.mark.parametrize("build, message", [
    (lambda: zoo.polygon_scwol(1), "polygon needs at least 2 sides"),
    (lambda: zoo.cone(zoo.pushout_scwol(), "j"), "object 'j' already present"),
    (lambda: randgen.rotation_action(6, 4), "step must divide the number of sides"),
    (lambda: randgen.rotation_action(4, 0), "step must be positive, not 0"),
    (lambda: randgen.rotation_action(4, -1), "step must be positive, not -1"),
    (lambda: randgen.rotation_action(0), "polygon needs at least 2 sides"),
    (lambda: randgen.reflection_action(5), "reflection through vertices needs an even polygon"),
    (lambda: randgen.inflate_action(randgen.rotation_action(4), {"v0": 2}),
     "copy counts must be constant on orbits"),
], ids=["polygon-1", "cone-apex", "rotation-step", "rotation-step-0", "rotation-step-negative",
        "rotation-sides-0", "odd-reflection", "inflate-off-orbit"])
def test_builder_arguments(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


def test_a_ragged_matrix():
    with pytest.raises(DimensionMismatch) as info:
        RatMatrix(((Fraction(1), Fraction(2)), (Fraction(3),)))
    assert str(info.value) == "ragged matrix"


def test_index_of_a_non_element():
    group = cyclic_group(3)
    with pytest.raises(KeyError) as info:
        group.index("x")
    assert info.value.args == ("'x' is not an element of Z3",)


# Hom-count rows that belong to no category: 0 and 1 map both ways, and
# neither is an isomorphism class of the other, so the support stays cyclic.
CYCLIC_ROWS = [{0: 1, 1: 1}, {0: 1, 1: 2}]


def test_totals_agree_on_crafted_rows():
    assert ratlin._chi_L_of_rows(CYCLIC_ROWS, lambda: [0, 1], "crafted") == 1


def test_weighting_and_coweighting_totals_disagree(monkeypatch):
    """A coweighting solved wrongly (every value raised by one) no longer
    sums to the weighting's total, and the cross-check raises."""
    real, calls = ratlin.solve_linear, []

    def skewed(mat, rhs):
        sol = real(mat, rhs)
        calls.append(mat)
        if len(calls) == 2:  # the coweighting, solved after the weighting
            return ratlin.LinearSolution(tuple(v + 1 for v in sol.values), sol.unique)
        return sol

    monkeypatch.setattr(ratlin, "solve_linear", skewed)
    with pytest.raises(InvariantViolation) as info:
        ratlin._chi_L_of_rows(CYCLIC_ROWS, lambda: [0, 1], "crafted")
    assert str(info.value) == "crafted: weighting and coweighting sums disagree"
    assert info.value.witness == {"weighting": Fraction(1), "coweighting": Fraction(3)}
    assert len(calls) == 2
