"""Exact rational linear algebra: weightings, coweightings, and chi_L.

One kernel (``_weigh``) solves every weighting system from sparse hom-count
rows, by the first route that applies: back-substitution when the arrows
between distinct objects form no cycle; otherwise the same on the system
condensed onto isomorphism classes; and only when that is still cyclic,
Gaussian elimination (``solve_linear``) on the condensed matrix.  Its rows
come from a category (``_count_rows`` and ``_iso_roots``) or, for the
Grothendieck construction of a strict diagram, from the diagram itself
(``hocolim``).  The kernel works in integers: back-substitution carries
each weight as a numerator over one running denominator, the lcm of the
weights' denominators.  Each route solves its rows exactly by construction
(see ``_weigh``), so no result is checked again; ``_check_equations``, an
integer row sum compared with that denominator, checks the weightings a
caller hands in (``Weighting``, a user's cell spectrum).  Fractions are
made only for results: one per object of a returned ``Weighting`` and the
two totals of ``chi_L``; ``_weigh_category`` hands the integers themselves
to the scwol and free-EI formulas of ``eulerchar``.  Only ``solve_linear``
computes in Fractions.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Mapping, Optional, Sequence

from .errors import EulcatError, InvariantViolation, _trusted
from .fincat import FinCat, _count_rows, _iso_roots, _topological_order

Rational = Fraction


class DimensionMismatch(EulcatError):
    pass


class NoWeighting(EulcatError):
    """The weighting system is inconsistent."""


class NoEulerCharacteristic(EulcatError):
    """The category lacks a weighting or a coweighting."""


@dataclass(frozen=True)
class RatMatrix:
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise DimensionMismatch("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        return RatMatrix(tuple(tuple(Fraction(v) for v in row) for row in rows))


@dataclass(frozen=True)
class LinearSolution:
    values: tuple[Fraction, ...]
    unique: bool


def solve_linear(a: RatMatrix, b: Sequence) -> Optional[LinearSolution]:
    """Solve A x = b by exact Gaussian elimination.

    Pivoting is deterministic: for each column, the first row (in order)
    with a non-zero entry.  Returns None if the system is inconsistent.
    Underdetermined systems get free variables set to 0 and unique=False.
    """
    if len(b) != a.nrows:
        raise DimensionMismatch(f"matrix has {a.nrows} rows but rhs has {len(b)}")
    m = [list(row) for row in a.rows]
    rhs = [Fraction(v) for v in b]
    nrows, ncols = a.nrows, a.ncols

    pivot_cols: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [v * inv for v in m[row]]
        rhs[row] *= inv
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[row])]
                rhs[r] -= factor * rhs[row]
        pivot_cols.append(col)
        row += 1
        if row == nrows:
            break

    for r in range(row, nrows):
        if rhs[r] != 0:
            return None

    values = [Fraction(0)] * ncols
    for r, col in enumerate(pivot_cols):
        values[col] = rhs[r]
    return LinearSolution(tuple(values), unique=(len(pivot_cols) == ncols))


def _back_substitute(
    rows: Sequence[Mapping[int, int]], order: Sequence[int]
) -> tuple[list[int], int]:
    """Solve sum_j rows[i][j] w_j = 1 along a topological order of the
    support: w_i = (1 - sum_{j != i} rows[i][j] w_j) / rows[i][i], in integers.

    Returns ``(nums, den)`` with w_i = nums[i] / den, where ``den`` is the
    lcm of the weights' denominators.  ``den`` grows by d / gcd(acc, d) only
    when the diagonal count d fails to divide the next numerator acc, and
    the numerators found so far are rescaled with it.  The diagonal of a
    hom-count matrix counts identities, so it is >= 1.
    """
    nums = [0] * len(rows)
    den = 1
    for i in order:
        row = rows[i]
        acc = den
        for j, count in row.items():
            if j != i:
                acc -= count * nums[j]
        d = row[i]
        if acc % d:
            g = gcd(acc, d)
            grow = d // g
            nums = [v * grow for v in nums]
            den *= grow
            nums[i] = acc // g
        else:
            nums[i] = acc // d
    return nums, den


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(nums, den)`` with values[i] = nums[i] / den and ``den`` the lcm of
    the denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _check_equations(
    rows: Sequence[Mapping[int, int]],
    nums: Sequence[int],
    den: int,
    side: str,
    label: Callable[[int], str],
) -> None:
    """sum_j rows[i][j] w_j = 1 for every i, for w_j = nums[j] / den: in
    integers, sum_j rows[i][j] nums[j] = den.  The first row that fails
    raises, named by ``label``."""
    for i, row in enumerate(rows):
        if sum(count * nums[j] for j, count in row.items()) != den:
            x = label(i)
            raise NoWeighting(f"{side} equation fails at {x!r}", witness={"object": x})


Support = tuple[Sequence[Mapping[int, int]], Optional[Sequence[int]], Optional[Sequence[int]]]


def _support(rows: Sequence[Mapping[int, int]], reps_of: Callable[[], Sequence[int]]) -> Support:
    """``(solved_rows, order, reps)``: the rows ``_weigh`` solves, a
    topological order of their support (None if it has a cycle), and the
    condensation representatives (None if the rows are solved as they are).

    A cyclic support is condensed onto the representatives ``reps_of()``
    returns, the least index of each isomorphism class in increasing order:
    isomorphic objects have equal rows and columns, so these are the pivots
    elimination on the full matrix would pick.
    """
    order = _topological_order(rows)
    if order is not None:
        return rows, order, None
    reps = reps_of()
    pos = {r: k for k, r in enumerate(reps)}
    condensed = [{pos[j]: c for j, c in rows[r].items() if j in pos} for r in reps]
    return condensed, _topological_order(condensed), reps


def _transpose(rows: Sequence[Mapping[int, int]]) -> list[dict[int, int]]:
    cols: list[dict[int, int]] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, count in row.items():
            cols[j][i] = count
    return cols


def _weigh(
    rows: Sequence[Mapping[int, int]],
    support: Support,
    side: str,
    name: str,
) -> tuple[list[int], int, bool]:
    """The kernel behind every weighting: ``(nums, den, unique)`` with
    w_j = nums[j] / den solving sum_j rows[i][j] w_j = 1.

    ``support`` is what ``_support`` gives for ``rows`` (``_chi_L_of_rows``
    derives the coweighting's from the weighting's).  Objects off the
    condensation representatives get 0, and only a still-cyclic condensate
    reaches ``solve_linear``; ``name`` serves its message.  Every route
    solves ``rows`` exactly, so the result is not checked against them:

    - back-substitution along a topological order of the support sets w_i
      from equation i once every other term of it is known, in integers;
    - condensation gives weight 0 off the representatives, so a
      representative's full equation is its condensed one, and a
      non-representative x isomorphic to its representative r has
      |mor(x, y)| = |mor(r, y)| for every y: its row (its column, on the
      transpose) is r's, so its equation is r's;
    - ``solve_linear`` returns None on an inconsistent system (reported as
      ``NoWeighting``) and otherwise a solution of every equation.

    The tests check every result against its rows as an oracle.
    """
    solved_rows, order, reps = support
    if order is not None:
        nums, den = _back_substitute(solved_rows, order)
        unique = True
    else:
        n = len(solved_rows)
        mat = RatMatrix.from_rows([[row.get(j, 0) for j in range(n)] for row in solved_rows])
        sol = solve_linear(mat, [Fraction(1)] * n)
        if sol is None:
            raise NoWeighting(f"{name} admits no {side}", witness={"side": side})
        nums, den = _over_common_denominator(sol.values)
        unique = sol.unique
    if reps is not None:
        full = [0] * len(rows)
        for r, v in zip(reps, nums):
            full[r] = v
        nums, unique = full, unique and len(reps) == len(full)
    return nums, den, unique


@dataclass(frozen=True)
class Weighting:
    category: FinCat
    values: Mapping[str, Fraction]
    side: str  # "weighting" | "coweighting"
    unique: bool

    def __post_init__(self):
        # sum_y |mor(x, y)| q^y = 1 in integers, one hom-count row at a time
        cat, values, side = self.category, self.values, self.side
        if side not in ("weighting", "coweighting"):
            raise NoWeighting(f"unknown side {side!r}", witness={"side": side})
        for x in cat.objects:
            if x not in values:
                raise NoWeighting(f"{side} has no value at {x!r}", witness={"object": x})
        rows = _count_rows(cat, transpose=(side == "coweighting"))
        nums, den = _over_common_denominator([values[x] for x in cat.objects])
        _check_equations(rows, nums, den, side, cat.objects.__getitem__)

    def total(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))


def _class_reps(cat: FinCat) -> Callable[[], list[int]]:
    """The condensation callback for ``_support`` on the hom-count rows of
    ``cat``: the first object, in object order, of each isomorphism class
    (``_iso_roots``), as row indices in increasing order."""
    def reps_of() -> list[int]:
        return [x for x, r in enumerate(_iso_roots(cat)) if r == x]

    return reps_of


def _weigh_category(cat: FinCat, side: str = "weighting") -> tuple[list[int], int, bool]:
    """``_weigh`` on the hom-count rows of ``cat`` (transposed for a
    coweighting), condensed if need be onto ``_class_reps``: ``(nums, den,
    unique)`` in object order, and no Fraction made."""
    rows = _count_rows(cat, transpose=(side == "coweighting"))
    return _weigh(rows, _support(rows, _class_reps(cat)), side, cat.name)


def _solve(cat: FinCat, side: str) -> Weighting:
    """``_weigh_category`` as a ``Weighting``, built unchecked: the kernel
    solves the rows exactly.  Its values are the only Fractions made."""
    nums, den, unique = _weigh_category(cat, side)
    values = {x: Fraction(v, den) for x, v in zip(cat.objects, nums)}
    return _trusted(Weighting, category=cat, values=values, side=side, unique=unique)


def weighting(cat: FinCat) -> Weighting:
    """Solve sum_y |mor(x,y)| q^y = 1 for all objects x.

    When the arrows between distinct objects form no cycle (every skeletal
    EI category, so every skeletal scwol), the system is triangular and is
    solved by back-substitution along a topological order; the solution is
    then unique.  A cyclic support is condensed onto isomorphism classes and
    solved the same way if that is acyclic (every EI category); only a
    non-EI cycle is left to Gaussian elimination on the condensed matrix.
    """
    return _solve(cat, "weighting")


def coweighting(cat: FinCat) -> Weighting:
    """A coweighting on C is a weighting on C^op: the same routes as
    ``weighting``, on the transposed hom-count matrix."""
    return _solve(cat, "coweighting")


def chi_L(cat: FinCat) -> Fraction:
    """Leinster Euler characteristic: the common sum of a weighting and a
    coweighting; raises if either is missing."""
    return _chi_L_of_rows(_count_rows(cat), _class_reps(cat), cat.name)


def _chi_L_of_rows(
    rows: Sequence[Mapping[int, int]],
    reps_of: Callable[[], Sequence[int]],
    name: str,
) -> Fraction:
    """``chi_L`` of the category with hom-count rows ``rows``: the weighting
    on the rows and the coweighting on their transpose, by ``_weigh``.

    Both sides share one support: the transpose of an acyclic support is
    acyclic in the reversed order, and a transposed support condenses onto
    the same classes.  The two totals are the only Fractions made.
    """
    support = _support(rows, reps_of)
    solved_rows, order, reps = support
    cols = _transpose(rows)
    co_support = (cols if reps is None else _transpose(solved_rows),
                  None if order is None else order[::-1], reps)
    totals = []
    for side, side_rows, side_support in (("weighting", rows, support),
                                          ("coweighting", cols, co_support)):
        try:
            nums, den, _ = _weigh(side_rows, side_support, side, name)
        except NoWeighting as exc:
            raise NoEulerCharacteristic(str(exc), witness=exc.witness) from exc
        totals.append(Fraction(sum(nums), den))
    total, cototal = totals
    if total != cototal:
        raise InvariantViolation(
            f"{name}: weighting and coweighting sums disagree",
            witness={"weighting": total, "coweighting": cototal},
        )
    return total
