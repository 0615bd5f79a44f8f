"""Exact rational linear algebra: weightings, coweightings, and chi_L.

All arithmetic uses fractions.Fraction (arbitrary-precision, always in
lowest terms with positive denominator); no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import EulcatError, InvariantViolation
from .fincat import FinCat, _count_rows, _topological_order

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


def mor_count_matrix(cat: FinCat) -> RatMatrix:
    """The matrix (|mor(x, y)|) indexed by the category's object order."""
    return RatMatrix.from_rows(
        [[len(cat.hom(x, y)) for y in cat.objects] for x in cat.objects]
    )


def _back_substitute(rows: Sequence[Mapping[int, int]], order: Sequence[int]) -> list[Fraction]:
    """Solve sum_j rows[i][j] w_j = 1 along a topological order of the
    support: w_i = (1 - sum_{j != i} rows[i][j] w_j) / rows[i][i].

    The diagonal of a hom-count matrix counts identities, so it is >= 1.
    """
    values: list[Fraction] = [Fraction(0)] * len(rows)
    for i in order:
        row = rows[i]
        acc = Fraction(1)
        for j, count in row.items():
            if j != i:
                acc -= count * values[j]
        values[i] = acc / row[i]
    return values


@dataclass(frozen=True)
class Weighting:
    category: FinCat
    values: Mapping[str, Fraction]
    side: str  # "weighting" | "coweighting"
    unique: bool

    def __post_init__(self):
        # sum_y |mor(x, y)| q^y, summed one morphism at a time
        cat, values = self.category, self.values
        for x in cat.objects:
            if self.side == "weighting":
                total = sum(values[cat.target(m)] for m in cat.morphisms_from(x))
            else:
                total = sum(values[cat.source(m)] for m in cat.morphisms_to(x))
            if total != 1:
                raise NoWeighting(f"{self.side} equation fails at {x!r}")

    def total(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))


def _solve(cat: FinCat, side: str) -> Weighting:
    rows = _count_rows(cat, transpose=(side == "coweighting"))
    order = _topological_order(rows)
    if order is not None:
        values, unique = _back_substitute(rows, order), True
    else:
        n = len(rows)
        mat = RatMatrix.from_rows([[row.get(j, 0) for j in range(n)] for row in rows])
        sol = solve_linear(mat, [Fraction(1)] * n)
        if sol is None:
            raise NoWeighting(f"{cat.name} admits no {side}")
        values, unique = sol.values, sol.unique
    return Weighting(cat, dict(zip(cat.objects, values)), side=side, unique=unique)


def weighting(cat: FinCat) -> Weighting:
    """Solve sum_y |mor(x,y)| q^y = 1 for all objects x.

    When the arrows between distinct objects form no cycle (every skeletal
    EI category, so every skeletal scwol), the system is triangular and is
    solved by back-substitution along a topological order; the solution is
    then unique.  Only a cyclic support falls back to Gaussian elimination
    (``solve_linear``) on the full hom-count matrix.
    """
    return _solve(cat, "weighting")


def coweighting(cat: FinCat) -> Weighting:
    """A coweighting on C is a weighting on C^op: the same routes as
    ``weighting``, on the transposed hom-count matrix."""
    return _solve(cat, "coweighting")


def chi_L(cat: FinCat) -> Fraction:
    """Leinster Euler characteristic: the common sum of a weighting and a
    coweighting; raises if either is missing."""
    try:
        w = weighting(cat)
        cw = coweighting(cat)
    except NoWeighting as exc:
        raise NoEulerCharacteristic(str(exc)) from exc
    total = w.total()
    if total != cw.total():
        raise InvariantViolation(
            f"{cat.name}: weighting and coweighting sums disagree",
            witness={"weighting": total, "coweighting": cw.total()},
        )
    return total
