from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import hocolim, ratlin, zoo
from eulcat.fincat import opposite, product, skeleton
from eulcat.groups import cyclic_group
from eulcat.hocolim import constant_diagram, grothendieck
from eulcat.randgen import groupoid_union
from eulcat.ratlin import (
    DimensionMismatch,
    NoEulerCharacteristic,
    NoWeighting,
    RatMatrix,
    Weighting,
    chi_L,
    coweighting,
    solve_linear,
    weighting,
)

from helpers import count_calls, split_idempotent
from strategies import groupoids, skeletal_scwols, strict_diagrams

grothendieck_totals = strict_diagrams.map(lambda d: grothendieck(d).category)


class TestSolveLinear:
    def test_identity_system(self):
        sol = solve_linear(RatMatrix.from_rows([[1, 0], [0, 1]]), [1, 1])
        assert sol.values == (1, 1) and sol.unique

    def test_scalar(self):
        sol = solve_linear(RatMatrix.from_rows([[2]]), [1])
        assert sol.values == (Fraction(1, 2),)

    def test_back_substitution(self):
        sol = solve_linear(RatMatrix.from_rows([[1, 4], [0, 4]]), [1, 1])
        assert sol.values == (0, Fraction(1, 4))
        assert sol.unique

    def test_inconsistent(self):
        assert solve_linear(RatMatrix.from_rows([[1], [1]]), [1, 2]) is None

    def test_underdetermined_flags_non_unique(self):
        sol = solve_linear(RatMatrix.from_rows([[1, 1]]), [1])
        assert not sol.unique
        assert sol.values[1] == 0  # free variable pinned to zero

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_linear(RatMatrix.from_rows([[1]]), [1, 2])


class TestWeighting:
    def test_parallel_pair(self):
        w = weighting(zoo.parallel_pair_scwol())
        assert w.values == {"j": -1, "k": 1}
        assert w.unique

    def test_pushout(self):
        w = weighting(zoo.pushout_scwol())
        assert w.values == {"j": -1, "k": 1, "l": 1}

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_subsets_poset(self, q):
        cat = zoo.subsets_poset_opposite(q)
        w = weighting(cat)
        for label, value in w.values.items():
            size = label.count(",") + 1
            assert value == (-1) ** (size - 1)

    def test_terminal_object(self):
        w = weighting(zoo.terminal_arrow_poset())
        assert w.values == {"a": 0, "t": 1}

    def test_weighting_equation_enforced(self):
        cat = zoo.pushout_scwol()
        with pytest.raises(NoWeighting):
            Weighting(cat, {"j": Fraction(0), "k": Fraction(1), "l": Fraction(1)},
                      side="weighting", unique=True)

    def test_missing_value_is_named(self):
        with pytest.raises(NoWeighting, match="'j'") as info:
            Weighting(zoo.pushout_scwol(), {}, "weighting", True)
        assert info.value.witness == {"object": "j"}

    def test_unknown_side_is_named(self):
        cat = zoo.terminal_category()
        with pytest.raises(NoWeighting, match="'cowieghting'") as info:
            Weighting(cat, {"*": Fraction(1)}, "cowieghting", True)
        assert info.value.witness == {"side": "cowieghting"}

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(groupoids.map(lambda g: g.category), grothendieck_totals), st.data())
    def test_one_value_moved_by_one_over_lcm_is_rejected(self, cat, data):
        for solve in (weighting, coweighting):
            w = solve(cat)
            assert Weighting(cat, dict(w.values), w.side, w.unique).values == w.values
            scale = lcm(*(v.denominator for v in w.values.values()))
            x = data.draw(st.sampled_from(cat.objects))
            step = data.draw(st.sampled_from((1, -1)))
            moved = dict(w.values, **{x: w.values[x] + Fraction(step, scale)})
            with pytest.raises(NoWeighting, match="equation fails"):
                Weighting(cat, moved, w.side, w.unique)

    def test_mixed_denominators(self):
        # B(Z/2) + B(Z/3): weighting 1/2 and 1/3, verified with L = 6
        cat = groupoid_union([(cyclic_group(n), 1, f"z{n}") for n in (2, 3)]).category
        values = {"z2.0": Fraction(1, 2), "z3.0": Fraction(1, 3)}
        for side in ("weighting", "coweighting"):
            assert Weighting(cat, values, side, True).total() == Fraction(5, 6)
            with pytest.raises(NoWeighting, match="'z3.0'"):
                Weighting(cat, dict(values, **{"z3.0": Fraction(1, 2)}), side, True)

    def test_coweighting_is_weighting_on_opposite(self):
        cat = zoo.pushout_scwol()
        cw = coweighting(cat)
        w_op = weighting(opposite(cat))
        assert dict(cw.values) == dict(w_op.values)

    @settings(max_examples=25, deadline=None)
    @given(skeletal_scwols)
    def test_scwol_weighting_unique_and_integral(self, cat):
        w = weighting(cat)
        assert w.unique
        assert all(v.denominator == 1 for v in w.values.values())

    @settings(max_examples=25, deadline=None)
    @given(skeletal_scwols)
    def test_weighting_and_coweighting_sums_agree(self, cat):
        assert weighting(cat).total() == coweighting(cat).total()


class TestOneIntegerCheck:
    """The kernel solves its rows exactly, so no weighting it solves is
    checked against them; a ``Weighting`` a caller builds is checked once,
    in integers."""

    def test_each_solve_checks_once(self, monkeypatch):
        # two copies of j: a cyclic support, solved on the condensate
        cat = zoo.inflate(zoo.pushout_scwol(), {"j": 2, "k": 1, "l": 1})
        d = constant_diagram(zoo.pushout_scwol(), cat)
        counts = {"_check_equations": 0}
        count_calls(monkeypatch, counts)
        w = weighting(cat)
        assert counts["_check_equations"] == 0
        assert chi_L(cat) == 1
        assert counts["_check_equations"] == 0
        assert Weighting(cat, dict(w.values), w.side, w.unique) == w
        assert counts["_check_equations"] == 1
        assert hocolim._total_chi_L(d) == 1
        assert counts["_check_equations"] == 1

    def test_first_failing_row_is_named(self):
        with pytest.raises(NoWeighting) as info:
            # w = (1, 1/2) over the common denominator 2
            ratlin._check_equations([{0: 1}, {0: 1, 1: 1}], [2, 1], 2, "weighting", "xy".__getitem__)
        assert (str(info.value), info.value.witness) == (
            "weighting equation fails at 'y'", {"object": "y"}
        )

    def test_inconsistent_system_names_its_side(self, monkeypatch):
        monkeypatch.setattr(ratlin, "solve_linear", lambda a, b: None)
        with pytest.raises(NoWeighting) as info:
            coweighting(split_idempotent())
        assert (str(info.value), info.value.witness) == (
            "split admits no coweighting", {"side": "coweighting"}
        )


class TestChiL:
    def test_two_element_monoid(self):
        assert chi_L(zoo.monoid_z2_mult()) == Fraction(1, 2)

    def test_two_element_group(self):
        assert chi_L(zoo.one_object_category(cyclic_group(2))) == Fraction(1, 2)

    def test_gamma_one(self):
        assert chi_L(zoo.gamma_one()) == Fraction(1, 4)

    def test_empty_category(self):
        assert chi_L(zoo.discrete_category([])) == 0

    def test_chi_l_on_idempotent_category(self):
        # non-EI category: one non-invertible idempotent endomorphism at a
        raw = {
            "objects": ["a", "b"],
            "morphisms": [
                {"id": "id_a", "source": "a", "target": "a"},
                {"id": "id_b", "source": "b", "target": "b"},
                {"id": "u", "source": "a", "target": "b"},
                {"id": "v", "source": "a", "target": "b"},
                {"id": "w", "source": "a", "target": "a"},
            ],
            "identity": {"a": "id_a", "b": "id_b"},
            "compose": [
                ["id_a", "id_a", "id_a"], ["id_b", "id_b", "id_b"],
                ["id_a", "w", "w"], ["w", "id_a", "w"], ["w", "w", "w"],
                ["u", "id_a", "u"], ["v", "id_a", "v"],
                ["id_b", "u", "u"], ["id_b", "v", "v"],
                ["u", "w", "u"], ["v", "w", "v"],
            ],
        }
        from eulcat.fincat import validate

        cat = validate(raw)
        # weighting: 2 q^a + 2 q^b = 1 and q^b = 1; coweighting: 2 q_a = 1
        # and 2 q_a + q_b = 1; both sum to 1/2
        assert chi_L(cat) == Fraction(1, 2)

    def test_missing_weighting_maps_to_no_euler_characteristic(self, monkeypatch):
        import eulcat.ratlin as ratlin_mod

        def refuse(rows, support, side, name):
            raise NoWeighting("forced", witness={"side": side})

        monkeypatch.setattr(ratlin_mod, "_weigh", refuse)
        with pytest.raises(NoEulerCharacteristic) as info:
            ratlin_mod.chi_L(zoo.pushout_scwol())
        assert str(info.value) == "forced"
        assert info.value.witness == {"side": "weighting"}

    @settings(max_examples=12, deadline=None)
    @given(skeletal_scwols, skeletal_scwols)
    def test_multiplicative_on_products(self, a, b):
        assert chi_L(product(a, b)) == chi_L(a) * chi_L(b)

    @settings(max_examples=15, deadline=None)
    @given(skeletal_scwols)
    def test_chi_l_equals_skeleton_chi_l_after_inflation(self, cat):
        fat = zoo.inflate(cat, {x: 1 + (i % 2) for i, x in enumerate(cat.objects)})
        assert chi_L(fat) == chi_L(skeleton(fat).category) == chi_L(cat)
