"""Euler characteristics computable from finite data.

Three computable regimes, each equal to chi_L where they overlap (the
tests check this; nothing here computes a second route):

* finite scwols: the total of the skeleton's weighting, an integer equal
  to the alternating count of its composable paths, which simultaneously
  computes the Euler characteristic, the L2-Euler characteristic, and the
  Euler characteristic of the classifying space;
* finite groupoids: groupoid cardinality, the sum of 1/|aut| over
  isomorphism classes;
* finite EI-categories whose skeleton has free left aut-actions on
  hom-sets: the distinct-object path sum, weighting each path by the
  inverse product of automorphism group orders.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EulcatError
from .fincat import (
    FinCat,
    NotGroupoid,
    _count_rows,
    _is_EI,
    _is_groupoid,
    _iso_roots,
    _require_scwol,
    _rows_of,
    _skeleton_category,
)
from .ratlin import _weigh_category


class HypothesisNotMet(EulcatError):
    """EI/freeness hypothesis fails; carries a witness pair."""


def _scwol_weights(cat: FinCat) -> tuple[FinCat, list[int]]:
    """The skeleton of a finite scwol and its weighting, as integers in the
    skeleton's object order.

    Every endomorphism of a scwol is an identity, so on its skeleton
    |mor(x, x)| = 1 and no cycle of arrows joins distinct objects (their
    composite would be an identity, making them isomorphic).  The
    weighting equation is then w(x) = 1 - sum of w(y) over the non-identity
    arrows x -> y: the recursion of the alternating count of paths starting
    at x.  Back-substitution along a topological order divides only by the
    diagonal, 1, so the denominator stays 1 and every weight is an integer.
    """
    _require_scwol(cat)
    gamma = _skeleton_category(cat)
    return gamma, _weigh_category(gamma)[0]


def chi_scwol(cat: FinCat) -> int:
    """Alternating count of the composable paths of a finite scwol, as the
    total of its skeleton's integer weighting (``_scwol_weights``).

    This single integer is the Euler characteristic, the L2-Euler
    characteristic, and the Euler characteristic of the classifying space.
    """
    return sum(_scwol_weights(cat)[1])


def chi_f_scwol(cat: FinCat) -> dict[str, Fraction]:
    """Functorial Euler characteristic of a finite scwol: the alternating
    count of bar-model cells starting at each iso-class representative,
    which is the skeleton's integer weight there (``_scwol_weights``).  The
    values sum to chi_scwol."""
    gamma, nums = _scwol_weights(cat)
    return {x: Fraction(v) for x, v in zip(gamma.objects, nums)}


def groupoid_chi2(cat: FinCat) -> Fraction:
    """Groupoid cardinality: sum of 1/|aut| over isomorphism classes, where
    |aut(x)| = |mor(x, x)| since every endomorphism is invertible; read off
    the hom counts at the least object of each class (``_iso_roots``)."""
    if not _is_groupoid(cat):
        first = next(m for m in range(len(cat._ends.src)) if m not in cat._ends.inv)
        raise NotGroupoid(f"{cat.name} has a non-invertible morphism",
                          witness={"morphism": cat.morphism_names()[first]})
    rows = _count_rows(cat)
    return sum(
        (Fraction(1, rows[x][x]) for x, r in enumerate(_iso_roots(cat)) if r == x),
        Fraction(0),
    )


def free_aut_witness(cat: FinCat):
    """A pair (u, a) with u a non-identity automorphism fixing a under
    postcomposition, or None if every left aut-action on hom-sets is free.
    It is the first over y, then x, then a in Hom(x, y), then u, on ``_rows_of(cat)``.

    Expects a skeletal category.
    """
    r = _rows_of(cat)
    into: list[list[int]] = [[] for _ in r.ident]  # Hom(x, y) of each y, for each x in turn
    for out in r.out():
        for a in out:
            into[r.tgt[a]].append(a)
    for y, hom in enumerate(into):
        auts = [u for u in hom if r.src[u] == y and u in r.inv and u != r.ident[y]]
        for a in hom:
            for u in auts:
                if r.rows[a][u] == a:
                    return r.names[u], r.names[a]
    return None


def chi2_free_EI(cat: FinCat) -> Fraction:
    """L2-Euler characteristic of a finite EI-category via distinct-object paths.

    Skeletonizes internally, requires the left aut(y)-action on mor(x, y) to
    be free for all x, y, then sums (-1)^l |mor(x_0, x_1)| ... |mor(x_{l-1}, x_l)|
    / (|aut(x_0)| ... |aut(x_l)|) over paths x_0 -> ... -> x_l with pairwise
    distinct objects.  In a skeletal EI category the arrows between distinct
    objects form no cycle and |mor(x, x)| = |aut(x)|, so this sum is the
    total of the skeleton's weighting, computed in integers by
    back-substitution along a topological order (never by elimination).
    chi_L is invariant under equivalence, so this is chi_L of the input
    too, and no second route is computed.
    """
    gamma = _skeleton_category(cat)
    if not _is_EI(gamma):
        ends = gamma._ends
        bad = gamma.morphism_names()[next(m for m, (x, y) in enumerate(zip(ends.src, ends.tgt))
                                          if x == y and m not in ends.inv)]
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

    nums, den, _ = _weigh_category(gamma)
    return Fraction(sum(nums), den)
