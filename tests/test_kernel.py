"""Differential tests for the acyclic-order kernel.

Each fast route in the library is pitted against an independent slow route
kept only here: dense matrix powers for path counts, Gaussian elimination
for weightings, the simple-path enumeration for the free-EI sum, and
all-pairs isomorphism tests for the structural predicates, the isomorphism
classes and the skeleton.  Every comparison demands exact equality.
"""

import itertools
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulcat import eulerchar, fincat, hocolim, manifest, randgen, ratlin, zoo
from eulcat.errors import EulcatError, InvariantViolation
from eulcat.eulerchar import HypothesisNotMet, chi2_free_EI, free_aut_witness
from eulcat.fincat import (
    FinCat,
    NotScwol,
    PredicateReport,
    _count_rows,
    _is_EI,
    _is_groupoid,
    _is_scwol,
    _skeleton_category,
    _topological_order,
    classify,
    full_subcategory,
    iso_classes,
    lower_link,
    opposite,
    path_counts,
    product,
    skeleton,
)
from eulcat.groups import FinGroup, cyclic_group, symmetric_group
from eulcat.groupact import (
    complex_of_groups,
    complex_to_pseudo_diagram,
    haefliger_chi,
    hocolim_groups,
    quotient,
    transport_groupoid,
)
from eulcat.hocolim import (
    PseudoDiagram,
    bar_spectrum,
    check_hocolim_formula,
    constant_diagram,
    grothendieck,
)
from eulcat.ratlin import NoWeighting, RatMatrix, coweighting, solve_linear, weighting

from helpers import (
    assert_same_table,
    chain,
    count_calls,
    equal_presentation,
    mor_count_matrix,
    reference_ends,
    reference_hom_rows,
    s3_flag_action,
    split_idempotent,
    stored_ends,
    table_key,
)
from strategies import (
    SEEDS,
    chains,
    groupoids,
    posets,
    scwols,
    skeletal_scwols,
    small_rationals,
    strict_diagrams,
)

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
    """(values, unique) from Gaussian elimination on the hom-count matrix;
    the library's NoWeighting when the system is inconsistent."""
    mat = mor_count_matrix(cat if side == "weighting" else opposite(cat))
    sol = solve_linear(mat, [Fraction(1)] * len(cat.objects))
    if sol is None:
        raise NoWeighting(f"{cat.name} admits no {side}")
    return dict(zip(cat.objects, sol.values)), sol.unique


def reordered(cat, order):
    """The same category with its objects listed in another order."""
    objs = tuple(cat.objects[i] for i in order)
    return FinCat(objs, cat.morphisms, cat.identity, cat.composition, name=cat.name)


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


def _isomorphic_objects(cat, x, y):
    if x == y:
        return True
    return any(cat.is_invertible(m) for m in cat.hom(x, y))


def all_pairs_classify(cat):
    """The structural predicates, skeletality tested on every object pair."""
    is_scwol = all(cat.is_identity(m) for x in cat.objects for m in cat.hom(x, x))
    is_ei = all(cat.is_invertible(m) for x in cat.objects for m in cat.hom(x, x))
    is_groupoid = all(cat.is_invertible(m.name) for m in cat.morphisms)
    is_df = True
    for u in cat.morphisms:
        if not is_df:
            break
        for v in cat.hom(u.target, u.source):
            if cat.compose(v, u.name) == cat.identity[u.source]:
                if cat.compose(u.name, v) != cat.identity[u.target]:
                    is_df = False
                    break
    is_skeletal = all(
        not _isomorphic_objects(cat, x, y) for x, y in itertools.combinations(cat.objects, 2)
    )
    if not cat.objects:
        is_connected = True
    else:
        seen = {cat.objects[0]}
        frontier = [cat.objects[0]]
        while frontier:
            x = frontier.pop()
            for m in cat.morphisms_from(x) + tuple(m.name for m in cat.morphisms if m.target == x):
                for y in (cat.source(m), cat.target(m)):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        is_connected = len(seen) == len(cat.objects)
    return PredicateReport(is_scwol, is_ei, is_df, is_groupoid, is_skeletal, is_connected)


def all_pairs_iso_classes(cat):
    """(classes, representatives, aut, all_endos_invertible), each class
    found by testing the least remaining object against every other."""
    remaining = set(cat.objects)
    classes = []
    for x in sorted(cat.objects):
        if x not in remaining:
            continue
        cls = [y for y in sorted(remaining) if _isomorphic_objects(cat, x, y)]
        remaining.difference_update(cls)
        classes.append(tuple(cls))
    classes.sort(key=lambda c: c[0])
    aut, full = {}, {}
    for cls in classes:
        rep = cls[0]
        endos = cat.hom(rep, rep)
        invertibles = tuple(m for m in endos if cat.is_invertible(m))
        full[rep] = len(invertibles) == len(endos)
        aut[rep] = FinGroup.from_mul(invertibles, cat.compose, name=f"aut({rep})")
    return tuple(classes), tuple(c[0] for c in classes), aut, full


def all_pairs_skeleton_category(cat):
    """The full subcategory on the all-pairs representatives."""
    reps = all_pairs_iso_classes(cat)[1]
    objs = tuple(x for x in cat.objects if x in set(reps))
    keep = set(objs)
    mors = tuple(m for m in cat.morphisms if m.source in keep and m.target in keep)
    names = {m.name for m in mors}
    comp = {(g, f): gf for (g, f), gf in cat.composition.items() if g in names and f in names}
    ident = {x: cat.identity[x] for x in objs}
    return FinCat(objs, mors, ident, comp, name=f"sk({cat.name})")


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


# -- chi of a scwol on the weighting kernel ----------------------------------------------


class TestScwolChiAgainstPathCounts:
    """chi_scwol, chi_f_scwol and haefliger_chi read the skeleton's integer
    weighting; the per-length path counts are the reference."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(skeletal_scwols, scwols, posets, chains()), st.data())
    def test_weights_are_the_alternating_path_counts(self, cat, data):
        pc = path_counts(cat)
        chi = eulerchar.chi_scwol(cat)
        assert type(chi) is int and chi == pc.euler_sum()
        assert eulerchar.chi_f_scwol(cat) == {x: pc.start_sum(x) for x in pc.starts}
        vals = {x: data.draw(small_rationals) for x in pc.starts}
        assert haefliger_chi(cat, vals) == sum(pc.start_sum(x) * v for x, v in vals.items())

    @pytest.mark.parametrize(
        "run",
        [
            lambda: eulerchar.chi_scwol(zoo.inflate(chain(6), {"2": 2})),
            lambda: eulerchar.chi_f_scwol(zoo.subsets_poset_opposite(3)),
            lambda: haefliger_chi(zoo.pushout_scwol(), {x: 1 for x in "jkl"}),
            lambda: chi2_free_EI(grothendieck(constant_diagram(
                zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))).category),
        ],
        ids=["chi_scwol", "chi_f_scwol", "haefliger_chi", "chi2_free_EI"],
    )
    def test_one_weighting_and_no_path_counts(self, monkeypatch, run):
        counts = {"_weigh_category": 0, "_skeleton_path_counts": 0, "weighting": 0}
        count_calls(monkeypatch, counts)
        run()
        assert counts == {"_weigh_category": 1, "_skeleton_path_counts": 0, "weighting": 0}

    @pytest.mark.parametrize("run", [lambda: path_counts(zoo.polygon_scwol(4)),
                                     lambda: bar_spectrum(zoo.polygon_scwol(4))],
                             ids=["path_counts", "bar_spectrum"])
    def test_per_length_output_still_counts_paths(self, monkeypatch, run):
        counts = {"_skeleton_path_counts": 0}
        count_calls(monkeypatch, counts)
        run()
        assert counts == {"_skeleton_path_counts": 1}


# -- weightings and coweightings --------------------------------------------------------


def inflated(cat, data):
    """``cat`` with 1-3 copies of each object, listed in a drawn order."""
    copies = {x: data.draw(st.integers(1, 3)) for x in cat.objects}
    fat = zoo.inflate(cat, copies)
    return reordered(fat, data.draw(st.permutations(range(len(fat.objects)))))


def outcome(fn, *args):
    """fn(*args), or the NoWeighting message, as a comparable value."""
    try:
        return fn(*args)
    except NoWeighting as exc:
        return str(exc)


def solved(solve, cat):
    w = solve(cat)
    return dict(w.values), w.unique


def assert_both_sides_match(cat):
    for solve, side in ((weighting, "weighting"), (coweighting, "coweighting")):
        assert outcome(solved, solve, cat) == outcome(eliminated, cat, side)


@pytest.fixture
def elimination_calls(monkeypatch):
    """The matrices the library hands to ``solve_linear``."""
    calls = []
    real = ratlin.solve_linear
    monkeypatch.setattr(ratlin, "solve_linear", lambda a, b: calls.append(a) or real(a, b))
    return calls


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
        assert_both_sides_match(gpd.category)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(scwols, posets, grothendieck_totals, st.just(split_idempotent())), st.data())
    def test_inflated_categories_match(self, cat, data):
        assert_both_sides_match(inflated(cat, data))

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(skeletal_scwols, posets, groupoids.map(lambda g: g.category)), st.data())
    def test_products_with_a_non_ei_monoid_match(self, cat, data):
        assert_both_sides_match(product(zoo.monoid_z2_mult(), inflated(cat, data)))

    def test_inflated_group_makes_no_elimination_call(self, elimination_calls):
        cat = zoo.inflate(zoo.one_object_category(cyclic_group(2)), {"*": 2})
        assert weighting(cat).total() == coweighting(cat).total() == Fraction(1, 2)
        assert not weighting(cat).unique
        assert elimination_calls == []

    def test_split_idempotent_eliminates_once_per_side(self, elimination_calls):
        assert_both_sides_match(split_idempotent())
        assert [(a.nrows, a.ncols) for a in elimination_calls] == [(2, 2), (2, 2)]


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


# -- predicates, isomorphism classes and the skeleton -------------------------------------


class TestIsoClassesAgainstAllPairs:
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            scwols, posets, groupoids.map(lambda g: g.category), grothendieck_totals
        )
    )
    @example(split_idempotent())
    def test_same_predicates_classes_and_skeleton(self, cat):
        assert classify(cat) == all_pairs_classify(cat)

        iso = iso_classes(cat)
        classes, reps, aut, full = all_pairs_iso_classes(cat)
        assert (iso.classes, iso.representatives) == (classes, reps)
        assert dict(iso.all_endos_invertible) == full
        assert list(iso.aut) == list(aut)
        for x, group in aut.items():
            assert (iso.aut[x].labels, iso.aut[x].table) == (group.labels, group.table)

        expected = all_pairs_skeleton_category(cat)
        gamma = skeleton(cat).category
        assert equal_presentation(gamma, expected)
        assert gamma.name == expected.name
        # the category alone: a skeletal input comes back as it is
        gamma = _skeleton_category(cat)
        assert equal_presentation(gamma, expected)
        if len(classes) == len(cat.objects):
            assert gamma is cat
        else:
            assert gamma.name == expected.name

    def test_one_sided_inverse_is_not_directly_finite(self):
        """r o s = id_y but s o r = e != id_x."""
        assert classify(split_idempotent()).is_directly_finite is False

    def test_classify_composes_nothing(self, monkeypatch):
        """Direct finiteness comes from the inverse search that FinCat makes
        when it is built, so classify looks up no composite."""
        cats = [split_idempotent(), zoo.inflate(zoo.one_object_category(cyclic_group(3)), {"*": 2}),
                zoo.gamma_one(), product(zoo.monoid_z2_mult(), zoo.pushout_scwol())]
        calls = []
        real = FinCat.compose
        monkeypatch.setattr(FinCat, "compose", lambda self, g, f: calls.append((g, f)) or real(self, g, f))
        reports = [classify(cat) for cat in cats]
        assert calls == []
        monkeypatch.undo()
        assert reports == [all_pairs_classify(cat) for cat in cats]

    def test_non_skeletal_groupoid(self):
        cat = zoo.inflate(zoo.one_object_category(cyclic_group(3)), {"*": 3})
        assert not classify(cat).is_skeletal
        assert classify(cat) == all_pairs_classify(cat)
        assert iso_classes(cat).classes == all_pairs_iso_classes(cat)[0]
        assert len(_skeleton_category(cat).objects) == 1


def hom_count_rows(cat):
    """The hom-count rows by object index, counted over every object pair by
    name: the reference for ``_count_rows``."""
    return [{j: len(cat.hom(x, y)) for j, y in enumerate(cat.objects) if cat.hom(x, y)}
            for x in cat.objects]


def stored(cat):
    """``cat`` as each kind of FinCat: itself, and validated from its
    manifest, which keeps its rows (with the entries shuffled)."""
    payload = manifest.category_payload(cat)
    Random(len(payload["compose"])).shuffle(payload["compose"])
    return [cat, fincat.validate(payload, name=cat.name)]


def assert_predicates_of(cat):
    """classify, the one-pass predicates, the hom counts and the iso
    classes of ``cat`` against the all-pairs references, which read names;
    ``cat``'s own reads come first, so a total is read off its arrays."""
    report = classify(cat)
    predicates = (_is_scwol(cat), _is_EI(cat), _is_groupoid(cat))
    rows = (_count_rows(cat), _count_rows(cat, transpose=True))
    classes = fincat._iso_partition(cat)
    assert report == all_pairs_classify(cat)
    assert predicates == (report.is_scwol, report.is_EI, report.is_groupoid)
    want = hom_count_rows(cat)
    assert [dict(sorted(r.items())) for r in rows[0]] == want
    assert [dict(sorted(r.items())) for r in rows[1]] == hom_count_rows(opposite(cat))
    assert classes == all_pairs_iso_classes(cat)[0]


def s3_flag_complex():
    flag, h = s3_flag_action()
    return complex_of_groups(flag, h_elements=h).complex


def s3_transport():
    group = symmetric_group(3)
    return transport_groupoid(group, *randgen.random_gset(Random(0), group))


def widest_lower_link(cat):
    return lower_link(cat, max(cat.objects, key=lambda x: len(cat.morphisms_from(x))))


# categories checked by the constructor, and one from each name-keyed builder
HAND_BUILT = {
    "split": split_idempotent,
    "Z2-mult": zoo.monoid_z2_mult,
    "gamma1": zoo.gamma_one,
    "inflated-Z3": lambda: zoo.inflate(zoo.one_object_category(cyclic_group(3)), {"*": 2}),
    "product": lambda: product(zoo.monoid_z2_mult(), zoo.pushout_scwol()),
    "empty": lambda: zoo.discrete_category([]),
    "discrete": lambda: zoo.discrete_category("abc"),
    "quotient": lambda: quotient(s3_flag_action()[0]).category,
    "hocolim-groups": lambda: hocolim_groups(s3_flag_complex()),
    "transport": s3_transport,
    "lower-link": lambda: widest_lower_link(zoo.subsets_poset_opposite(3)),
    "opposite": lambda: opposite(split_idempotent()),
    "full-subcategory": lambda: full_subcategory(split_idempotent(), ["x"]),
    "skeleton": lambda: skeleton(randgen.connected_groupoid(cyclic_group(2), 3, "g")[0]).category,
    "product-split": lambda: product(split_idempotent(), zoo.pushout_scwol()),
    "randgen": lambda: randgen.random_scwol(Random(0)),
}


class TestClassifyOnEveryStore:
    """One predicate implementation, reading the ``_ends`` every FinCat
    keeps: a Grothendieck total's arrays, a manifest category's rows, or
    the arrays the name-keyed constructor builds."""

    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_totals(self, d):
        assert_predicates_of(grothendieck(d).category)
        assert_predicates_of(hocolim.grothendieck_pseudo(PseudoDiagram.from_strict(d)))

    def test_totals_over_an_index_not_directly_finite(self):
        for vertex in (zoo.terminal_category(), zoo.one_object_category(cyclic_group(3)),
                       split_idempotent()):
            assert_predicates_of(grothendieck(constant_diagram(split_idempotent(), vertex)).category)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(scwols, posets, groupoids.map(lambda g: g.category), grothendieck_totals))
    def test_manifest_categories_and_records(self, cat):
        for each in stored(cat):
            assert_predicates_of(each)

    @pytest.mark.parametrize("build", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    def test_hand_built(self, build):
        for each in stored(build()):
            assert_predicates_of(each)


def assert_ends_of(cat):
    assert stored_ends(cat) == reference_ends(cat)


class TestEndsEqualTheRecords:
    """The ``_ends`` of every store hold what its records say
    (``helpers.reference_ends``)."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(scwols, posets, groupoids.map(lambda g: g.category), grothendieck_totals))
    def test_drawn(self, cat):
        for each in stored(cat):
            assert_ends_of(each)

    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_pseudo_totals(self, d):
        assert_ends_of(hocolim.grothendieck_pseudo(PseudoDiagram.from_strict(d)))

    def test_totals_over_an_index_not_directly_finite(self):
        for vertex in (zoo.terminal_category(), split_idempotent()):
            assert_ends_of(grothendieck(constant_diagram(split_idempotent(), vertex)).category)

    @pytest.mark.parametrize("build", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    def test_hand_built(self, build):
        for each in stored(build()):
            assert_ends_of(each)

    def test_split_idempotent_is_not_directly_finite(self):
        """r o s = id_y but s o r != id_x, in the checked build and in the
        unchecked products with it."""
        split = split_idempotent()
        for cat in (split, product(split, zoo.pushout_scwol()),
                    product(zoo.monoid_z2_mult(), split)):
            assert not cat._directly_finite, cat.name
            assert [m for m in cat.morphism_names() if cat.is_invertible(m)] == \
                [cat.identity[x] for x in cat.objects], cat.name

    def test_a_swapped_source_is_caught(self):
        """Non-vacuity: a scratch store with two ``src`` entries swapped
        fails the comparison."""
        cat = zoo.pushout_scwol()
        cat.morphisms, cat._invertible  # the records, made off the true rows before the swap
        ends = cat._ends
        src = list(ends.src)
        i, j = next((i, j) for i, j in itertools.combinations(range(len(src)), 2)
                    if src[i] != src[j])
        src[i], src[j] = src[j], src[i]
        object.__setattr__(cat, "_ends", fincat._Ends(src, ends.tgt, ends.ident, ends.inv))
        with pytest.raises(AssertionError):
            assert_ends_of(cat)


def rows_in_order(rows):
    """Each row's (key, count) pairs in key order: equal only if the
    counts and the order of the keys are."""
    return [list(row.items()) for row in rows]


def assert_hom_rows_of(cat):
    for transpose in (False, True):
        assert (rows_in_order(cat._ends.hom_rows(transpose))
                == rows_in_order(reference_hom_rows(cat._ends, transpose)))


class TestHomRowsAgainstTheCounter:
    """``_Ends.hom_rows`` counts in one pass what the ``Counter`` of
    endpoint pairs counted (``helpers.reference_hom_rows``): the same rows,
    counts and key order, plain and transposed, on every store."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(scwols, posets, groupoids.map(lambda g: g.category), grothendieck_totals))
    def test_drawn(self, cat):
        for each in stored(cat):
            assert_hom_rows_of(each)

    @settings(max_examples=30, deadline=None)
    @given(strict_diagrams)
    def test_strict_and_pseudo_totals(self, d):
        assert_hom_rows_of(grothendieck(d).category)
        assert_hom_rows_of(hocolim.grothendieck_pseudo(PseudoDiagram.from_strict(d)))

    @pytest.mark.parametrize("build", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    def test_hand_built(self, build):
        for each in stored(build()):
            assert_hom_rows_of(each)

    def test_two_keys_swapped_are_caught(self):
        """Non-vacuity: a reference row with two keys swapped holds the
        same counts but fails the comparison."""
        cat = zoo.subsets_poset_opposite(3)
        got, want = cat._ends.hom_rows(), reference_hom_rows(cat._ends)
        k = next(k for k, row in enumerate(want) if len(row) > 1)
        (a, ca), (b, cb), *rest = want[k].items()
        want[k] = dict([(b, cb), (a, ca), *rest])
        assert got == want
        assert rows_in_order(got) != rows_in_order(want)


def test_full_subcategory_reads_an_iterator_once():
    cat = zoo.subsets_poset_opposite(2)
    kept = full_subcategory(cat, iter(cat.objects[1:]))
    assert kept.objects == cat.objects[1:]


# -- the scwol check and the skeleton pass ------------------------------------------------


# scwols, posets, groupoids, EI totals and non-EI products with a monoid
predicate_inputs = st.one_of(
    scwols,
    posets,
    groupoids.map(lambda g: g.category),
    grothendieck_totals,
    st.one_of(scwols, posets).map(lambda c: product(zoo.monoid_z2_mult(), c)),
)


class TestOnePassScwolCheck:
    @settings(max_examples=40, deadline=None)
    @given(predicate_inputs)
    def test_matches_classify(self, cat):
        assert _is_scwol(cat) == classify(cat).is_scwol

    @pytest.mark.parametrize(
        "run, partitions",
        [
            (lambda: bar_spectrum(zoo.subsets_poset_opposite(3)), 1),
            # the input only: the lower links are read off its path counts
            (lambda: haefliger_chi(zoo.pushout_scwol(), {x: 1 for x in "jkl"}), 1),
        ],
        ids=["bar_spectrum", "haefliger_chi"],
    )
    def test_one_skeleton_pass_and_no_classify(self, monkeypatch, run, partitions):
        # a skeletal input is recognised from its iso roots alone, with no
        # named partition made
        counts = {"classify": 0, "_iso_roots": 0, "_iso_partition": 0}
        count_calls(monkeypatch, counts)
        run()
        assert counts == {"classify": 0, "_iso_roots": partitions, "_iso_partition": 0}


class TestOnePassPredicates:
    @settings(max_examples=40, deadline=None)
    @given(predicate_inputs)
    def test_match_classify(self, cat):
        report = classify(cat)
        assert _is_EI(cat) == report.is_EI
        assert _is_groupoid(cat) == report.is_groupoid

    @pytest.mark.parametrize(
        "run",
        [
            lambda: hocolim.chi2_of(zoo.one_object_category(cyclic_group(3))),
            lambda: hocolim.chi2_of(zoo.pushout_scwol()),
            lambda: hocolim.chi2_of(grothendieck(constant_diagram(
                zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))).category),
            lambda: eulerchar.groupoid_chi2(zoo.discrete_category("ab")),
        ],
        ids=["groupoid", "scwol", "free-EI", "groupoid_chi2"],
    )
    def test_chi2_routes_make_no_classify_call(self, monkeypatch, run):
        counts = {"classify": 0}
        count_calls(monkeypatch, counts)
        run()
        assert counts == {"classify": 0}


# -- non-skeletal chi_L without elimination -----------------------------------------------


class TestNoEliminationOnEICategories:
    """chi_L of EI categories never reaches ``solve_linear``: the guard is
    a call that raises, not a clock."""

    @pytest.fixture(autouse=True)
    def refuse_elimination(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError(f"solve_linear called on a {a.nrows}x{a.ncols} matrix")

        monkeypatch.setattr(ratlin, "solve_linear", refuse)

    def test_inflated_polygon(self):
        base = zoo.polygon_scwol(160)
        assert ratlin.chi_L(zoo.inflate(base, {x: 3 for x in base.objects})) == 0

    def test_audit_formula_instances(self):
        rng = Random(0)
        for _ in range(50):
            assert check_hocolim_formula(randgen.random_strict_diagram(rng), "chiL").equal


# -- the integer kernel against the Fraction kernel ----------------------------------------


def fraction_back_substitute(rows, order):
    """Back-substitution with one Fraction per term."""
    values = [Fraction(0)] * len(rows)
    for i in order:
        row = rows[i]
        acc = Fraction(1)
        for j, count in row.items():
            if j != i:
                acc -= count * values[j]
        values[i] = acc / row[i]
    return values


def fraction_check_equations(rows, values, side, label):
    scale = lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    for i, row in enumerate(rows):
        if sum(count * scaled[j] for j, count in row.items()) != scale:
            x = label(i)
            raise NoWeighting(f"{side} equation fails at {x!r}", witness={"object": x})


def fraction_support(rows, reps_of):
    """``(solved_rows, order, reps)``: ``rows``, condensed onto ``reps_of()``
    if their support has a cycle, and a topological order of the result
    (None if it has one too)."""
    order = _topological_order(rows)
    if order is not None:
        return rows, order, None
    reps = reps_of()
    pos = {r: k for k, r in enumerate(reps)}
    solved_rows = [{pos[j]: c for j, c in rows[r].items() if j in pos} for r in reps]
    return solved_rows, _topological_order(solved_rows), reps


def fraction_weigh(rows, reps_of, side, name, label=None):
    """``(values, unique)`` by the same routes as ``ratlin._weigh``, in
    Fractions, each side finding its own topological order."""
    solved_rows, order, reps = fraction_support(rows, reps_of)
    if order is not None:
        values, unique = fraction_back_substitute(solved_rows, order), True
    else:
        n = len(solved_rows)
        mat = RatMatrix.from_rows([[row.get(j, 0) for j in range(n)] for row in solved_rows])
        sol = solve_linear(mat, [Fraction(1)] * n)
        if sol is None:
            raise NoWeighting(f"{name} admits no {side}", witness={"side": side})
        values, unique = list(sol.values), sol.unique
    if reps is not None:
        full = [Fraction(0)] * len(rows)
        for r, v in zip(reps, values):
            full[r] = v
        values, unique = full, unique and len(reps) == len(full)
    fraction_check_equations(rows, values, side, label or LABELS.__getitem__)
    return values, unique


def fraction_chi_L(rows, reps_of, name, label=None):
    """Both totals, compared: Leinster's Lemma 1.3, which ``chi_L`` takes as
    proved on an acyclic support, as an oracle."""
    totals = []
    for side, side_rows in (("weighting", rows), ("coweighting", ratlin._transpose(rows))):
        try:
            values, _ = fraction_weigh(side_rows, reps_of, side, name, label)
        except NoWeighting as exc:
            raise ratlin.NoEulerCharacteristic(str(exc), witness=exc.witness) from exc
        totals.append(sum(values, Fraction(0)))
    if totals[0] != totals[1]:
        raise InvariantViolation(f"{name}: weighting and coweighting sums disagree",
                                 witness={"weighting": totals[0], "coweighting": totals[1]})
    return totals[0]


def checked_weigh(rows, support, side, name, weigh=ratlin._weigh):
    """``ratlin._weigh`` with an oracle on its result, which the kernel
    does not check: it solves every one of ``rows``
    (``fraction_check_equations``), or NoWeighting names the first that
    fails.  The library's supports are solved exactly; the drawn ones may
    condense onto any representatives."""
    nums, den, unique = weigh(rows, support, side, name)
    fraction_check_equations(rows, [Fraction(v, den) for v in nums], side, LABELS.__getitem__)
    return nums, den, unique


def kernel_outcome(fn, *args):
    """fn(*args, "C"), with every kernel result checked against its rows
    (``checked_weigh``), or the class, message and witness it raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratlin, "_weigh", checked_weigh)
        try:
            return fn(*args, "C")
        except EulcatError as exc:
            return type(exc).__name__, str(exc), exc.witness


def integer_weigh(rows, reps_of, side, name):
    nums, den, unique = ratlin._weigh(rows, ratlin._support(rows, reps_of), side, name)
    values = [Fraction(v, den) for v in nums]
    assert den == lcm(*(v.denominator for v in values))
    return values, unique


LABELS = "abcdefghijklmnopqrstuvwxyz"


@st.composite
def count_rows(draw):
    """Sparse rows with a positive diagonal and any off-diagonal support,
    with drawn condensation representatives: the lawful shapes and the
    inconsistent ones, whose first failing row the kernel must name."""
    n = draw(st.integers(1, 6))
    rows = []
    for i in range(n):
        row = {j: c for j in range(n) if (c := draw(st.integers(0, 2)))}
        row[i] = draw(st.integers(1, 4))
        rows.append(row)
    reps = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return rows, lambda: reps


def category_rows(cat):
    return _count_rows(cat), ratlin._class_reps(cat)


def weighting_chi_L(rows, reps_of, name):
    """The total of the Fraction weighting alone."""
    try:
        values, _ = fraction_weigh(rows, reps_of, "weighting", name)
    except NoWeighting as exc:
        raise ratlin.NoEulerCharacteristic(str(exc), witness=exc.witness) from exc
    return sum(values, Fraction(0))


def assert_kernels_agree(rows, reps_of, classes=True):
    """Each side of the integer kernel against the Fraction one, and
    ``_chi_L_of_rows`` against both totals (``fraction_chi_L``).

    ``classes`` says that ``reps_of()`` are isomorphism classes, as on a
    category's rows.  Drawn representatives need not be: a coweighting
    condensed onto them may solve no equation that the weighting does, and
    there an acyclic condensate is the weighting's total, as in the library,
    where Lemma 1.3 spares the second solve.  Rows acyclic as drawn are
    compared with both totals either way."""
    cols = ratlin._transpose(rows)
    for side, side_rows in (("weighting", rows), ("coweighting", cols)):
        assert (kernel_outcome(integer_weigh, side_rows, reps_of, side)
                == kernel_outcome(fraction_weigh, side_rows, reps_of, side))
    _, order, reps = fraction_support(rows, reps_of)
    one_sided = not classes and order is not None and reps is not None
    assert (kernel_outcome(ratlin._chi_L_of_rows, rows, reps_of)
            == kernel_outcome(weighting_chi_L if one_sided else fraction_chi_L, rows, reps_of))


class TestIntegerKernelAgainstFractions:
    @settings(max_examples=60, deadline=None)
    @given(count_rows())
    def test_drawn_rows(self, drawn):
        assert_kernels_agree(*drawn, classes=False)

    def test_representatives_that_are_no_classes(self):
        """b's row and a's differ, so the coweighting condensed onto a
        fails at b while the weighting solves both rows: the two-sided
        reference raises, and ``_chi_L_of_rows``, which solves one side on
        an acyclic condensate, gives the weighting's total."""
        rows, reps_of = [{0: 1, 1: 2}, {1: 1, 0: 1}], lambda: [0]
        assert kernel_outcome(fraction_chi_L, rows, reps_of) == (
            "NoEulerCharacteristic", "coweighting equation fails at 'b'", {"object": "b"})
        assert kernel_outcome(ratlin._chi_L_of_rows, rows, reps_of) == 1
        assert_kernels_agree(rows, reps_of, classes=False)

    @settings(max_examples=30, deadline=None)
    @given(strict_diagrams)
    def test_strict_diagram_totals(self, d):
        assert_kernels_agree(*hocolim._total_counts(d))

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(skeletal_scwols, scwols, posets, grothendieck_totals,
                     groupoids.map(lambda g: g.category)))
    def test_categories(self, cat):
        assert_kernels_agree(*category_rows(cat))

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(scwols, posets, grothendieck_totals, st.just(split_idempotent())), st.data())
    def test_inflated_categories(self, cat, data):
        assert_kernels_agree(*category_rows(inflated(cat, data)))

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(skeletal_scwols, posets, groupoids.map(lambda g: g.category)), st.data())
    def test_products_with_a_non_ei_monoid(self, cat, data):
        assert_kernels_agree(*category_rows(product(zoo.monoid_z2_mult(), inflated(cat, data))))

    @settings(max_examples=40, deadline=None)
    @given(count_rows())
    def test_back_substitution(self, drawn):
        rows, _ = drawn
        order = _topological_order(rows)
        if order is not None:
            nums, den = ratlin._back_substitute(rows, order)
            assert [Fraction(v, den) for v in nums] == fraction_back_substitute(rows, order)

    def test_growing_denominator(self):
        # w = 1/2, 1/4, 3/8 down a chain with two identities at each object
        rows = [{0: 2}, {1: 2, 0: 1}, {2: 2, 1: 1}]
        assert ratlin._back_substitute(rows, [0, 1, 2]) == ([4, 2, 3], 8)


@pytest.fixture
def fractions_made(monkeypatch):
    """The number of Fractions constructed so far, as a one-element list."""
    made = [0]
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


class TestFractionsMade:
    @pytest.mark.parametrize("build", [lambda: zoo.polygon_scwol(80),
                                       lambda: zoo.subsets_poset_opposite(5)],
                             ids=["polygon80", "subsets5"])
    def test_chi_L_makes_one_total_on_an_acyclic_support(self, build, fractions_made):
        cat = build()
        fractions_made[0] = 0
        ratlin.chi_L(cat)
        assert fractions_made[0] == 1

    def test_chi_L_makes_two_totals_on_a_cyclic_condensate(self, fractions_made, monkeypatch):
        """Both sides are solved by elimination, whose Fractions are not
        counted here: only the totals outside ``_weigh``."""
        real = ratlin._weigh

        def uncounted(*args):
            made = fractions_made[0]
            try:
                return real(*args)
            finally:
                fractions_made[0] = made

        monkeypatch.setattr(ratlin, "_weigh", uncounted)
        cat = split_idempotent()
        fractions_made[0] = 0
        assert ratlin.chi_L(cat) == 1
        assert fractions_made[0] == 2

    def test_weighting_makes_one_per_object(self, fractions_made):
        cat = zoo.polygon_scwol(80)
        fractions_made[0] = 0
        weighting(cat)
        assert fractions_made[0] == len(cat.objects)


class TestOneSolveOnAnAcyclicSupport:
    """``_weigh`` runs once per chi_L when the support is acyclic, after
    condensation if any, and twice, one side each, when it stays cyclic."""

    @staticmethod
    def weighs(fn, *args):
        counts = {"_weigh": 0}
        with pytest.MonkeyPatch.context() as mp:
            count_calls(mp, counts)
            fn(*args)
        return counts["_weigh"]

    @pytest.mark.parametrize("build", [
        lambda: zoo.polygon_scwol(80),
        lambda: zoo.subsets_poset_opposite(4),
        lambda: zoo.inflate(zoo.pushout_scwol(), {"j": 3}),  # condensed, then acyclic
        lambda: zoo.one_object_category(cyclic_group(3)),
    ], ids=["polygon80", "subsets4", "inflated", "Z3"])
    def test_once_on_an_acyclic_support(self, build):
        assert self.weighs(ratlin.chi_L, build()) == 1

    def test_once_per_drawn_total(self):
        rng = Random(0)
        for _ in range(20):
            assert self.weighs(hocolim._total_chi_L, randgen.random_strict_diagram(rng)) == 1

    @pytest.mark.parametrize("build", [
        split_idempotent,
        lambda: product(split_idempotent(), zoo.one_object_category(cyclic_group(2))),
        lambda: product(zoo.pushout_scwol(), split_idempotent()),
        lambda: product(split_idempotent(), split_idempotent()),
    ], ids=["split", "split-x-Z2", "pushout-x-split", "split-x-split"])
    def test_twice_on_a_cyclic_condensate(self, build):
        assert self.weighs(ratlin.chi_L, build()) == 2

    def test_twice_on_a_cyclic_total(self):
        d = constant_diagram(zoo.pushout_scwol(), split_idempotent())
        assert self.weighs(hocolim._total_chi_L, d) == 2



# -- a manifest read once, its name table built on first read --------------------------


def manifest_dict(payload):
    """The name-keyed table a manifest's ``compose`` entries describe, in
    their order: what ``fincat.validate`` held before it read the entries
    straight into rows."""
    return {(str(g), str(f)): str(gf) for g, f, gf in payload["compose"]}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of ``_Rows`` constructions (each filled in one pass over a
    table's entries) and of name tables built from rows."""
    counts = {"passes": 0, "tables": 0}
    real_init, real_table = fincat._Rows.__init__, fincat._Rows.table

    def init(self, *arrays):
        counts["passes"] += 1
        real_init(self, *arrays)

    def table(self):
        counts["tables"] += 1
        return real_table(self)

    monkeypatch.setattr(fincat._Rows, "__init__", init)
    monkeypatch.setattr(fincat._Rows, "table", table)
    return counts


class TestTableOnFirstRead:
    @settings(max_examples=30, deadline=None)
    @given(st.one_of(scwols, posets, groupoids.map(lambda g: g.category), grothendieck_totals),
           SEEDS)
    def test_no_table_until_read_then_the_manifest_order(self, cat, seed):
        payload = manifest.category_payload(cat)
        Random(seed).shuffle(payload["compose"])
        loaded = fincat.validate(payload, name=cat.name)
        report = classify(loaded)
        if report.is_scwol and report.is_skeletal:  # else it composes a skeleton first
            path_counts(loaded)
        for fn in (weighting, ratlin.chi_L):
            try:
                fn(loaded)
            except EulcatError:  # no weighting: the table is not read either way
                pass
        assert "composition" not in vars(loaded)
        first = loaded.composition
        assert loaded.composition is first
        want = FinCat(cat.objects, cat.morphisms, dict(cat.identity), manifest_dict(payload),
                      name=cat.name)
        assert_same_table(loaded, want)

    @pytest.mark.parametrize("build", [lambda: zoo.polygon_scwol(12),
                                       lambda: zoo.subsets_poset_opposite(3),
                                       lambda: zoo.one_object_category(cyclic_group(4))],
                             ids=["polygon12", "subsets3", "Z4"])
    def test_one_pass_per_load_and_one_table_on_read(self, build, kernel_calls):
        payload = manifest.category_payload(build())
        kernel_calls["passes"] = 0
        cat = manifest.category_from_payload(payload)
        assert kernel_calls == {"passes": 1, "tables": 0}
        report = classify(cat)
        weighting(cat)
        ratlin.chi_L(cat)
        if report.is_scwol:
            path_counts(cat)
        assert kernel_calls == {"passes": 1, "tables": 0}
        assert list(cat.composition.items()) == list(manifest_dict(payload).items())
        cat.composition
        assert kernel_calls == {"passes": 1, "tables": 1}

    def test_checks_build_no_table(self, kernel_calls):
        """The functor, action, naturality and coherence checks read the rows
        that loading kept: loading an action, the parts of a pseudo diagram
        from a complex of groups (index, vertices and edge functors) and the
        pseudo diagram's checks build no name table, and read the entries
        of each distinct table once: vertices that differ only in their
        names share the rows of the first."""
        flag, h = s3_flag_action()
        pseudo = complex_to_pseudo_diagram(complex_of_groups(flag, h_elements=h).complex)
        action_payload = manifest.serialize("action", flag)["payload"]
        pseudo_payload = manifest.serialize("pseudo_diagram", pseudo)["payload"]
        kernel_calls["passes"] = 0
        manifest.action_from_payload(action_payload)
        index, vertex, edge = manifest._diagram_parts(pseudo_payload)
        PseudoDiagram(index, vertex, edge, pseudo.comp, pseudo.unit)
        tables = {table_key(p) for p in pseudo_payload["vertices"].values()}
        assert 1 < len(tables) < len(vertex)
        assert kernel_calls == {"passes": 2 + len(tables), "tables": 0}

    def test_loading_a_pseudo_manifest_builds_no_table(self, kernel_calls):
        """``pseudo_diagram_from_payload`` reads off the endpoints that each
        comp entry names a composable pair, so a load builds no name table,
        the index's included."""
        flag, h = s3_flag_action()
        pseudo = complex_to_pseudo_diagram(complex_of_groups(flag, h_elements=h).complex)
        payload = manifest.serialize("pseudo_diagram", pseudo)["payload"]
        kernel_calls["tables"] = 0
        loaded = manifest.pseudo_diagram_from_payload(payload)
        assert kernel_calls["tables"] == 0 and "composition" not in vars(loaded.index)

    def test_loading_a_complex_builds_no_table(self, kernel_calls):
        """``complex_from_payload`` reads the composable pairs off the base's
        rows to fill in unit twists and find a missing one, so a load
        builds no name table."""
        flag, h = s3_flag_action()
        cplx = complex_of_groups(flag, h_elements=h).complex
        payload = manifest.serialize("complex", cplx)["payload"]
        kernel_calls["tables"] = 0
        loaded = manifest.complex_from_payload(payload)
        assert kernel_calls["tables"] == 0 and "composition" not in vars(loaded.base)

    @settings(max_examples=20, deadline=None)
    @given(SEEDS)
    def test_missing_twist_in_table_order(self, seed):
        """With the base's entries shuffled and some twists dropped, the
        first missing pair of the base's table is reported, as a walk of the
        name table finds it."""
        rng = Random(seed)
        flag, h = s3_flag_action()
        cplx = complex_of_groups(flag, h_elements=h).complex
        payload = manifest.serialize("complex", cplx)["payload"]
        rng.shuffle(payload["base"]["compose"])
        dropped = rng.sample(payload["twists"], rng.randint(1, 3))
        payload["twists"] = [t for t in payload["twists"] if t not in dropped]
        table = fincat.validate(payload["base"], name="base").composition
        b, a = next(pair for pair in table if [*pair] in [t[:2] for t in dropped])
        with pytest.raises(manifest.BadManifest) as info:
            manifest.complex_from_payload(payload)
        assert str(info.value) == f"no twist for composable pair ({b!r}, {a!r})"
        assert info.value.witness == {"pair": (b, a)}

    def test_comp_entry_for_a_pair_that_does_not_compose(self):
        """A comp entry whose pair does not compose, or names no index
        morphism, is rejected with the pair as witness, as a lookup in the
        index's table would."""
        flag, h = s3_flag_action()
        pseudo = complex_to_pseudo_diagram(complex_of_groups(flag, h_elements=h).complex)
        index = pseudo.index
        u = next(m.name for m in index.morphisms if not index.is_identity(m.name))
        v = next(m.name for m in index.morphisms if m.source != index.target(u))
        for pair in ((v, u), ("nosuch", u), (u, "nosuch")):
            assert pair not in index.composition
            payload = manifest.serialize("pseudo_diagram", pseudo)["payload"]
            payload["comp"].append([*pair, {}])
            with pytest.raises(manifest.BadManifest) as info:
                manifest.pseudo_diagram_from_payload(payload)
            assert str(info.value) == f"comp entry for non-composable pair {pair!r}"
            assert info.value.witness == {"pair": pair}

    def test_a_table_handed_in_is_read_back_in_order(self, kernel_calls):
        """A FinCat built from a name dict checks it on the same rows and
        keeps the rows, not the dict: its ``composition`` is a view made on
        first read, equal to the dict in value and in order."""
        cat = zoo.polygon_scwol(6)
        comp = dict(cat.composition)
        kernel_calls["passes"] = kernel_calls["tables"] = 0
        rebuilt = FinCat(cat.objects, cat.morphisms, dict(cat.identity), comp)
        assert kernel_calls == {"passes": 1, "tables": 0}
        assert "composition" not in vars(rebuilt)
        assert rebuilt.composition is not comp
        assert list(rebuilt.composition.items()) == list(comp.items())
        assert kernel_calls == {"passes": 1, "tables": 1}

