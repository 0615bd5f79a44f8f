"""Differential tests for the acyclic-order kernel.

Each fast route in the library is pitted against an independent slow route
kept only here: dense matrix powers for path counts, Gaussian elimination
for weightings, and the simple-path enumeration for the free-EI sum.
Every comparison demands exact equality.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import ratlin, zoo
from eulcat.eulerchar import HypothesisNotMet, chi2_free_EI, free_aut_witness
from eulcat.fincat import (
    NotScwol,
    _count_rows,
    _topological_order,
    classify,
    opposite,
    path_counts,
    skeleton,
)
from eulcat.groups import cyclic_group
from eulcat.hocolim import grothendieck
from eulcat.ratlin import coweighting, mor_count_matrix, solve_linear, weighting

from strategies import groupoids, posets, scwols, skeletal_scwols, strict_diagrams

grothendieck_totals = strict_diagrams.map(lambda d: grothendieck(d).category)


# -- reference routes -----------------------------------------------------------


def dense_path_counts(cat):
    """Per-length and per-start path counts from powers of the dense count
    matrix of the skeleton's non-identity arrows."""
    gamma = skeleton(cat).category
    objs = gamma.objects
    n = len(objs)
    index = {x: i for i, x in enumerate(objs)}
    mat = [[0] * n for _ in range(n)]
    for m in gamma.morphisms:
        if not gamma.is_identity(m.name):
            mat[index[m.source]][index[m.target]] += 1
    counts = [n]
    starts = {x: [1] for x in objs}
    power = mat
    while any(v for row in power for v in row):
        counts.append(sum(v for row in power for v in row))
        for x in objs:
            starts[x].append(sum(power[index[x]]))
        power = [
            [sum(power[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return tuple(counts), {x: tuple(v) for x, v in starts.items()}


def eliminated(cat, side):
    """(values, unique) from Gaussian elimination on the hom-count matrix."""
    mat = mor_count_matrix(cat if side == "weighting" else opposite(cat))
    sol = solve_linear(mat, [Fraction(1)] * len(cat.objects))
    return dict(zip(cat.objects, sol.values)), sol.unique


def simple_path_sum(gamma):
    """sum (-1)^l prod |mor| / prod |aut| over paths with distinct objects."""
    aut_order = {x: len(gamma.hom(x, x)) for x in gamma.objects}
    total = Fraction(0)

    def extend(last, visited, length, weight):
        nonlocal total
        total += (-1) ** length * weight
        for y in gamma.objects:
            edges = len(gamma.hom(last, y))
            if y not in visited and edges:
                extend(y, visited | {y}, length + 1, weight * edges / aut_order[y])

    for x0 in gamma.objects:
        extend(x0, frozenset([x0]), 0, Fraction(1, aut_order[x0]))
    return total


# -- the topological order --------------------------------------------------------


class TestTopologicalOrder:
    def test_reports_cycle_on_cyclic_support(self):
        assert _topological_order([{0: 1, 1: 2}, {1: 1, 0: 1}]) is None
        assert _topological_order([{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 0: 1}, {3: 1}]) is None

    def test_orders_successors_first(self):
        rows = [{0: 1, 1: 1, 2: 3}, {1: 1, 2: 1}, {2: 1}, {3: 1, 0: 1}]
        order = _topological_order(rows)
        position = {i: k for k, i in enumerate(order)}
        assert sorted(order) == [0, 1, 2, 3]
        for i, row in enumerate(rows):
            assert all(position[j] < position[i] for j in row if j != i)

    def test_diagonal_is_not_a_cycle(self):
        assert _topological_order([{0: 3}]) == [0]

    def test_non_skeletal_groupoid_support_is_cyclic(self):
        cat = zoo.inflate(zoo.terminal_category(), {"*": 2})
        assert _topological_order(_count_rows(cat)) is None


# -- path counts ------------------------------------------------------------------------


class TestPathCountsAgainstMatrixPowers:
    @settings(max_examples=30, deadline=None)
    @given(st.one_of(skeletal_scwols, scwols, posets))
    def test_counts_and_starts_match(self, cat):
        pc = path_counts(cat)
        assert (pc.counts, dict(pc.starts)) == dense_path_counts(cat)

    @pytest.mark.parametrize("n", [3, 8])
    def test_polygon(self, n):
        cat = zoo.polygon_scwol(n)
        pc = path_counts(cat)
        assert (pc.counts, dict(pc.starts)) == dense_path_counts(cat)

    def test_cap_below_depth_raises(self):
        cat = zoo.subsets_poset_opposite(2)
        depth = len(path_counts(cat).counts) - 1
        assert path_counts(cat, n_max=depth).counts == dense_path_counts(cat)[0]
        with pytest.raises(NotScwol):
            path_counts(cat, n_max=depth - 1)


# -- weightings and coweightings --------------------------------------------------------


class TestWeightingAgainstElimination:
    @settings(max_examples=30, deadline=None)
    @given(st.one_of(skeletal_scwols, scwols, posets, grothendieck_totals))
    def test_values_and_uniqueness_match(self, cat):
        for solve in (weighting, coweighting):
            w = solve(cat)
            assert (dict(w.values), w.unique) == eliminated(cat, w.side)

    @settings(max_examples=20, deadline=None)
    @given(groupoids)
    def test_groupoid_fallback_matches(self, gpd):
        cat = gpd.category
        for solve in (weighting, coweighting):
            w = solve(cat)
            assert (dict(w.values), w.unique) == eliminated(cat, w.side)

    def test_cyclic_support_takes_elimination(self, monkeypatch):
        calls = []
        real = ratlin.solve_linear
        monkeypatch.setattr(ratlin, "solve_linear", lambda a, b: calls.append(a) or real(a, b))
        cat = zoo.inflate(zoo.one_object_category(cyclic_group(2)), {"*": 2})
        assert weighting(cat).total() == coweighting(cat).total() == Fraction(1, 2)
        assert len(calls) == 2
        weighting(zoo.subsets_poset_opposite(2))
        assert len(calls) == 2


# -- the free-EI path sum ----------------------------------------------------------------


class TestChi2FreeEIAgainstSimplePaths:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_one_object_groups(self, n):
        cat = zoo.one_object_category(cyclic_group(n))
        assert chi2_free_EI(cat) == simple_path_sum(cat) == Fraction(1, n)

    def test_gamma_one(self):
        gamma = skeleton(zoo.gamma_one()).category
        assert chi2_free_EI(zoo.gamma_one()) == simple_path_sum(gamma)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(scwols, groupoids.map(lambda g: g.category), grothendieck_totals))
    def test_matches_when_hypotheses_hold(self, cat):
        gamma = skeleton(cat).category
        if not classify(gamma).is_EI or free_aut_witness(gamma) is not None:
            with pytest.raises(HypothesisNotMet):
                chi2_free_EI(cat)
            return
        assert chi2_free_EI(cat) == simple_path_sum(gamma)
