"""Euler characteristics computable from finite data.

Three computable regimes, all cross-checked against chi_L where they
overlap:

* finite scwols: the alternating sum of path counts over a skeleton,
  which simultaneously computes the Euler characteristic, the L2-Euler
  characteristic, and the Euler characteristic of the classifying space;
* finite groupoids: groupoid cardinality, the sum of 1/|aut| over
  isomorphism classes;
* finite EI-categories whose skeleton has free left aut-actions on
  hom-sets: the distinct-object path sum, weighting each path by the
  inverse product of automorphism group orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import EulcatError, InvariantViolation
from .fincat import (
    FinCat,
    NotGroupoid,
    classify,
    iso_classes,
    path_counts,
    skeleton,
)
from .ratlin import chi_L, weighting


class HypothesisNotMet(EulcatError):
    """EI/freeness hypothesis fails; carries a witness pair."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class EulerVector:
    """Functorial Euler characteristic: one rational per iso-class representative."""

    category: FinCat
    values: Mapping[str, Fraction]

    def total(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))


def chi_scwol(cat: FinCat) -> int:
    """Alternating sum of path counts of a finite scwol.

    This single integer is the Euler characteristic, the L2-Euler
    characteristic, and the Euler characteristic of the classifying space.
    """
    return path_counts(cat).euler_sum()


def chi_f_scwol(cat: FinCat) -> EulerVector:
    """Per-object alternating cell counts of the bar model; sums to chi_scwol."""
    pc = path_counts(cat)
    values = {x: Fraction(pc.start_sum(x)) for x in pc.starts}
    vec = EulerVector(cat, values)
    if vec.total() != pc.euler_sum():
        raise InvariantViolation(
            f"{cat.name}: per-object sums disagree with the path-count sum",
            witness={"per_object_total": vec.total(), "euler_sum": pc.euler_sum()},
        )
    return vec


def groupoid_chi2(cat: FinCat) -> Fraction:
    """Groupoid cardinality: sum of 1/|aut| over isomorphism classes."""
    if not classify(cat).is_groupoid:
        raise NotGroupoid(f"{cat.name} has a non-invertible morphism")
    iso = iso_classes(cat)
    return sum(
        (Fraction(1, iso.aut[rep].order) for rep in iso.representatives),
        Fraction(0),
    )


def free_aut_witness(cat: FinCat):
    """A pair (u, a) with u a non-identity automorphism fixing a under
    postcomposition, or None if every left aut-action on hom-sets is free.

    Expects a skeletal category.
    """
    for y in cat.objects:
        auts = [u for u in cat.hom(y, y) if cat.is_invertible(u) and not cat.is_identity(u)]
        if not auts:
            continue
        for x in cat.objects:
            for a in cat.hom(x, y):
                for u in auts:
                    if cat.compose(u, a) == a:
                        return (u, a)
    return None


def chi2_free_EI(cat: FinCat) -> Fraction:
    """L2-Euler characteristic of a finite EI-category via distinct-object paths.

    Skeletonizes internally, requires the left aut(y)-action on mor(x, y) to
    be free for all x, y, then sums (-1)^l |mor(x_0, x_1)| ... |mor(x_{l-1}, x_l)|
    / (|aut(x_0)| ... |aut(x_l)|) over paths x_0 -> ... -> x_l with pairwise
    distinct objects.  In a skeletal EI category the arrows between distinct
    objects form no cycle and |mor(x, x)| = |aut(x)|, so this sum is the
    total of the skeleton's weighting, computed by back-substitution along a
    topological order (never by elimination).  The result is checked equal to
    chi_L of the input.
    """
    gamma = skeleton(cat).category
    report = classify(gamma)
    if not report.is_EI:
        bad = next(
            m.name
            for m in gamma.morphisms
            if m.source == m.target and not gamma.is_invertible(m.name)
        )
        raise HypothesisNotMet(
            f"{cat.name} is not EI: endomorphism {bad!r} is not invertible",
            witness=bad,
        )
    witness = free_aut_witness(gamma)
    if witness is not None:
        u, a = witness
        raise HypothesisNotMet(
            f"left aut-action is not free: {u!r} o {a!r} = {a!r}", witness=witness
        )

    total = weighting(gamma).total()
    leinster = chi_L(cat)
    if total != leinster:
        raise InvariantViolation(
            f"{cat.name}: path-sum formula disagrees with chi_L",
            witness={"path_sum": total, "chi_L": leinster},
        )
    return total
