"""The oracles for what the library derives from a validated input
without checking it again.

Every homotopy colimit total (``grothendieck``, ``grothendieck_pseudo``,
``hocolim_groups``), and ``one_object_category``, ``lower_link``,
``quotient``, ``transport_groupoid``, the zoo's ``cone`` and ``inflate``
and the space of ``induced_free_action``, is built from an input whose own
checks make it lawful.  Here each output is rebuilt through the checked
``FinCat`` constructor (``helpers.assert_lawful``).  The consequences of
the scwol-action axioms that the library reads without checking (the orbit
projection of ``quotient``, the section of ``equivariant_skeleton``) and
the paper identities it uses as definitions (the lower-link identity behind
``haefliger_chi``, chi2_free_EI = chi_L, chi2 of a transport groupoid, and
multiplicativity on products) are checked here too.  The non-vacuity tests
skip the input checks on a complex with a broken cocycle, on pseudo
diagrams with a broken unit or associativity component and on actions
breaking axiom (i) or (ii), and show that the oracles reject what is built from
them: the input checks are what carry the weight.

Every other value the library derives from validated ones is built by
``errors._trusted``, with no constructor check: functors, homomorphisms,
complexes, actions (the action lifts along the cone and the inflation, and
the induced free action, among them), diagrams, spectra, weightings,
subgroups and the automorphism groups of ``iso_classes``.
``helpers.assert_revalidates`` rebuilds each through its constructor here,
and the skeleton's eta goes through ``fincat._check_natural``; the
non-vacuity tests show that a twist with its factors swapped, one wrong
eta component, automorphisms with a wrong inverse and an inflation lift
without its copy offset are rejected, and no listed path runs a
constructor check.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import groupact, randgen, zoo
from eulcat.errors import ValidationError
from eulcat.eulerchar import chi2_free_EI, chi_scwol, groupoid_chi2
from eulcat.fincat import (
    BrokenIdentity,
    CatFunctor,
    NonAssociative,
    NotNatural,
    iso_classes,
    lower_link,
    path_counts,
    product,
    skeleton,
)
from eulcat.groupact import (
    AxiomIIViolation,
    AxiomIViolation,
    ComplexOfGroups,
    NotAFunctorAction,
    ScwolAction,
    complex_of_groups,
    complex_to_pseudo_diagram,
    equivariant_skeleton,
    haefliger_chi,
    hocolim_groups,
    quotient,
    skeletal_reduction,
    stabilizer,
    transport_groupoid,
)
from eulcat.groups import FinGroup, GroupHom, cyclic_group
from eulcat.hocolim import (
    CellSpectrum,
    CoherenceFailure,
    PseudoDiagram,
    StrictDiagram,
    bar_spectrum,
    constant_diagram,
    grothendieck,
    grothendieck_pseudo,
)
from eulcat.ratlin import chi_L, coweighting, weighting

from helpers import (
    assert_complex_revalidates,
    assert_equivariant_section,
    assert_lawful,
    assert_orbit_projection,
    assert_retraction_data,
    assert_revalidates,
    assert_transport_groupoid,
    gamma_one,
    inflate_action_without_offset,
    InvalidQuotient,
    s3_flag_action,
    start_sum,
    unvalidated,
    z2_chain_complex_data,
)
from strategies import (
    actions,
    free_actions,
    groupoids,
    groups,
    noncentral_actions,
    posets,
    scwols,
    skeletal_scwols,
    small_groupoids,
    strict_diagrams,
)

ANY_ACTION = st.one_of(actions, free_actions, noncentral_actions.map(lambda drawn: drawn[0]))
SCWOLS_AND_GROUPOIDS = st.one_of(scwols, groupoids.map(lambda g: g.category))


def assert_both_totals_lawful(cplx):
    assert_lawful(grothendieck_pseudo(complex_to_pseudo_diagram(cplx)))
    assert_lawful(hocolim_groups(cplx))


class TestTotals:
    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_strict(self, d):
        assert_lawful(grothendieck(d).category)

    @settings(max_examples=25, deadline=None)
    @given(strict_diagrams)
    def test_pseudo_view_of_strict(self, d):
        assert_lawful(grothendieck_pseudo(PseudoDiagram.from_strict(d)))

    @settings(max_examples=25, deadline=None)
    @given(actions)
    def test_complex_of_an_action_by_both_routes(self, action):
        assert_both_totals_lawful(complex_of_groups(action).complex)

    @settings(max_examples=20, deadline=None)
    @given(noncentral_actions)
    def test_noncentral_complex_by_both_routes(self, drawn):
        action, h = drawn
        assert_both_totals_lawful(complex_of_groups(action, h_elements=h).complex)


class TestSmallerBuilders:
    @settings(max_examples=30, deadline=None)
    @given(groups)
    def test_one_object_category(self, group):
        assert_lawful(zoo.one_object_category(group))

    @settings(max_examples=30, deadline=None)
    @given(scwols)
    def test_lower_link_at_every_object(self, cat):
        for x in cat.objects:
            assert_lawful(lower_link(cat, x))

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(actions, noncentral_actions.map(lambda drawn: drawn[0])))
    def test_quotient(self, action):
        assert_lawful(quotient(action).category)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(SCWOLS_AND_GROUPOIDS, posets), st.data())
    def test_cone_and_inflate(self, cat, data):
        copies = data.draw(st.dictionaries(st.sampled_from(cat.objects), st.integers(0, 3)))
        assert_lawful(zoo.cone(cat, "apex"))
        assert_lawful(zoo.inflate(cat, copies))


class TestActionConsequences:
    @settings(max_examples=30, deadline=None)
    @given(st.one_of(actions, free_actions, noncentral_actions.map(lambda drawn: drawn[0])))
    def test_orbit_projection(self, action):
        assert_orbit_projection(action, quotient(action))

    @settings(max_examples=25, deadline=None)
    @given(actions)
    def test_equivariant_section(self, action):
        assert_equivariant_section(action)

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_transport_groupoid_of_the_object_rows(self, action):
        """The G-set of an action's object rows."""
        group, elements = action.group, action.space.objects
        act = {g: dict(action.on_objects[g]) for g in group.labels}
        groupoid = transport_groupoid(group, elements, act)
        assert_transport_groupoid(group, elements, act, groupoid)


class TestPaperIdentities:
    @settings(max_examples=30, deadline=None)
    @given(scwols)
    def test_lower_link_identity(self, cat):
        """1 - chi(B Lk^i) is the alternating count of paths starting at i,
        at every object of the skeleton, and the lower-link formula with a
        distinct value at each object is the sum of those counts."""
        gamma, pc = skeleton(cat).category, path_counts(cat)
        vals = {i: Fraction(k + 1, 7) for k, i in enumerate(gamma.objects)}
        route = Fraction(0)
        for i in gamma.objects:
            one_minus = 1 - chi_scwol(lower_link(gamma, i))
            assert one_minus == start_sum(pc, i)
            route += one_minus * vals[i]
        assert haefliger_chi(cat, vals) == route

    @settings(max_examples=20, deadline=None)
    @given(small_groupoids, skeletal_scwols)
    def test_chi2_free_EI_is_chi_L_on_products(self, gpd, cat):
        total = product(gpd.category, cat)
        assert chi2_free_EI(total) == chi_L(total)

    @pytest.mark.parametrize("cat", [
        gamma_one(), zoo.one_object_category(cyclic_group(3)), zoo.pushout_scwol(),
        zoo.subsets_poset_opposite(3), zoo.contractible_groupoid(("a", "b", "c")),
        product(zoo.one_object_category(cyclic_group(2)), zoo.circle_scwol()),
    ], ids=["gamma_one", "BZ3", "pushout", "subsets3", "contractible", "BZ2xcircle"])
    def test_chi2_free_EI_is_chi_L_on_zoo_cases(self, cat):
        assert chi2_free_EI(cat) == chi_L(cat)

    @settings(max_examples=15, deadline=None)
    @given(small_groupoids, small_groupoids)
    def test_groupoid_products(self, a, b):
        total = product(a.category, b.category)
        assert chi_L(total) == chi_L(a.category) * chi_L(b.category)
        assert groupoid_chi2(total) == groupoid_chi2(a.category) * groupoid_chi2(b.category)

    @settings(max_examples=15, deadline=None)
    @given(scwols, scwols)
    def test_scwol_products(self, a, b):
        assert chi_scwol(product(a, b)) == chi_scwol(a) * chi_scwol(b)


class TestNonVacuity:
    def test_broken_cocycle(self):
        data = z2_chain_complex_data(corrupt=True)
        with pytest.raises(ValidationError, match=r"cocycle fails on triple \('c', 'b', 'a'\)"):
            ComplexOfGroups(*data)
        broken = unvalidated(ComplexOfGroups, base=data[0], local=data[1], homs=data[2],
                             twists=data[3])
        with pytest.raises(NonAssociative):
            assert_lawful(hocolim_groups(broken))

    def test_broken_associativity_component(self):
        good = complex_to_pseudo_diagram(ComplexOfGroups(*z2_chain_complex_data(corrupt=False)))
        comp = {**good.comp, ("b", "a"): {"*": "1"}}
        fields = dict(index=good.index, vertex=good.vertex, edge=good.edge, comp=comp,
                      unit=good.unit)
        with pytest.raises(CoherenceFailure, match="associativity coherence fails"):
            PseudoDiagram(**fields)
        with pytest.raises(NonAssociative):
            assert_lawful(grothendieck_pseudo(unvalidated(PseudoDiagram, **fields)))

    def test_broken_unit_component(self):
        """B(Z/3) over the terminal category: the unit axioms force
        comp = -unit, so unit 1 with comp 1 breaks them and nothing else
        (every component is natural, and associativity holds for any comp)."""
        index, vertex = zoo.terminal_category("i"), zoo.one_object_category(cyclic_group(3))
        idx_id = index.identity["i"]
        fields = dict(index=index, vertex={"i": vertex},
                      edge={idx_id: CatFunctor.identity_functor(vertex)},
                      comp={(idx_id, idx_id): {"*": "1"}}, unit={"i": {"*": "1"}})
        with pytest.raises(CoherenceFailure, match="right unit axiom fails"):
            PseudoDiagram(**fields)
        with pytest.raises(BrokenIdentity):
            assert_lawful(grothendieck_pseudo(unvalidated(PseudoDiagram, **fields)))

    def test_axiom_i_broken_by_an_isomorphism(self):
        """Z/2 swapping the ends of an isomorphism x -> y: ScwolAction
        rejects it, and the section oracle rejects the same tables built
        without that check."""
        space = zoo.contractible_groupoid(("x", "y"))
        swap = {"x": "y", "y": "x"}
        names = space.morphism_names()
        on_morphisms = {"0": {m: m for m in names},
                        "1": {m.name: next(iter(space.hom(swap[m.source], swap[m.target])))
                              for m in space.morphisms}}
        fields = dict(group=cyclic_group(2), space=space,
                      on_objects={"0": {"x": "x", "y": "y"}, "1": swap},
                      on_morphisms=on_morphisms)
        with pytest.raises(AxiomIViolation):
            ScwolAction(**fields)
        with pytest.raises(InvalidQuotient, match="equivariant section is not well-defined"):
            assert_equivariant_section(unvalidated(ScwolAction, **fields))

    def test_axiom_ii_broken_by_parallel_arrows(self):
        """Z/2 exchanging two parallel arrows x -> y and fixing x: a functor
        action that breaks axiom (ii) only.  ScwolAction rejects it, and the
        projection oracle rejects the quotient of the same tables built
        without that check."""
        space = zoo.build_category(("x", "y"), (("f1", "x", "y"), ("f2", "x", "y")), {})
        names = space.morphism_names()
        fields = dict(group=cyclic_group(2), space=space,
                      on_objects={g: {"x": "x", "y": "y"} for g in "01"},
                      on_morphisms={"0": {m: m for m in names},
                                    "1": {**{m: m for m in names}, "f1": "f2", "f2": "f1"}})
        with pytest.raises(AxiomIIViolation):
            ScwolAction(**fields)
        action = unvalidated(ScwolAction, **fields)
        with pytest.raises(InvalidQuotient, match="not injective on morphisms out of 'x'"):
            assert_orbit_projection(action, quotient(action))

    def test_valid_inputs_pass(self):
        """The same constructions on the uncorrupted complex pass the oracle."""
        cplx = ComplexOfGroups(*z2_chain_complex_data(corrupt=False))
        assert_lawful(hocolim_groups(cplx))
        assert_lawful(grothendieck_pseudo(complex_to_pseudo_diagram(cplx)))


class TestTrustedBuilders:
    """``assert_revalidates`` on every value built with ``errors._trusted``."""

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(actions, free_actions))
    def test_complex_of_an_action(self, action):
        assert_complex_revalidates(complex_of_groups(action).complex)

    @settings(max_examples=20, deadline=None)
    @given(noncentral_actions)
    def test_noncentral_complex_with_its_h(self, drawn):
        action, h = drawn
        assert_complex_revalidates(complex_of_groups(action, h_elements=h).complex)

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(actions, noncentral_actions.map(lambda drawn: drawn[0])))
    def test_complex_to_pseudo_diagram(self, action):
        p = complex_to_pseudo_diagram(complex_of_groups(action).complex)
        assert_revalidates(*p.edge.values(), p)

    @settings(max_examples=30, deadline=None)
    @given(SCWOLS_AND_GROUPOIDS)
    def test_skeleton(self, cat):
        sk = skeleton(cat)
        assert_retraction_data(cat, sk.inclusion, sk.retraction, sk.eta)

    @settings(max_examples=25, deadline=None)
    @given(actions)
    def test_equivariant_skeleton(self, action):
        esk = equivariant_skeleton(action)
        assert_retraction_data(action.space, esk.inclusion, esk.retraction, esk.eta)
        assert_revalidates(esk.action)

    @settings(max_examples=20, deadline=None)
    @given(ANY_ACTION)
    def test_skeletal_reduction(self, action):
        """The reduced action, and the induced functor on quotients and the
        two coordinated complexes it is compared along."""
        compared = []
        real = groupact._complexes_agree_along
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groupact, "_complexes_agree_along",
                       lambda fx, fg, rbar: compared.append((fx, fg, rbar)) or real(fx, fg, rbar))
            reduced = skeletal_reduction(action).action
        assert_revalidates(reduced)
        [(fx, fg, rbar)] = compared
        assert_complex_revalidates(fx)
        assert_complex_revalidates(fg)
        assert_revalidates(rbar)

    @settings(max_examples=30, deadline=None)
    @given(scwols)
    def test_bar_spectrum(self, cat):
        assert_revalidates(bar_spectrum(cat))

    @settings(max_examples=25, deadline=None)
    @given(strict_diagrams)
    def test_strict_diagram_builders(self, d):
        """``from_strict``, ``constant_diagram``, the alphas and ``then``."""
        assert_revalidates(PseudoDiagram.from_strict(d))
        const = constant_diagram(d.index, d.vertex[d.index.objects[0]])
        assert_revalidates(*const.edge.values(), const)
        assert_revalidates(*grothendieck(d).alphas.values())
        assert_revalidates(*(d.edge[u].then(d.edge[v]) for v, u in d.index.composition))

    @settings(max_examples=30, deadline=None)
    @given(SCWOLS_AND_GROUPOIDS)
    def test_weightings(self, cat):
        assert_revalidates(weighting(cat), coweighting(cat))

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(SCWOLS_AND_GROUPOIDS, posets, strict_diagrams.map(
        lambda d: grothendieck(d).category)))
    def test_automorphism_groups(self, cat):
        """Built with no group check: the constructor accepts each one and
        finds the same identity and inverses."""
        checks = []
        with pytest.MonkeyPatch.context() as mp:
            real = FinGroup.__post_init__
            mp.setattr(FinGroup, "__post_init__", lambda self: checks.append(1) or real(self))
            auts = iso_classes(cat).aut
        assert checks == []
        for group in auts.values():
            assert_same_group(group)

    @settings(max_examples=25, deadline=None)
    @given(ANY_ACTION)
    def test_action_lifts(self, action):
        """The lift along an inflation with orbit-constant copy counts, and
        along the cone unless the space is one already."""
        copies = {x: (2, 1, 0)[k % 3] for k, orbit in enumerate(action.object_orbits())
                  for x in orbit}
        lifts = [randgen.inflate_action(action, copies)]
        if not action.space.has_object("t"):
            lifts.append(randgen.cone_action(action))
        for lifted in lifts:
            assert_lawful(lifted.space)
            assert_revalidates(lifted)

    @settings(max_examples=25, deadline=None)
    @given(groups, scwols)
    def test_induced_free_action(self, group, base):
        action = randgen.induced_free_action(group, base)
        assert_lawful(action.space)
        assert_revalidates(action)

    @settings(max_examples=20, deadline=None)
    @given(groups, ANY_ACTION)
    def test_identities_and_stabilizers(self, group, action):
        assert_revalidates(GroupHom.identity_hom(group), CatFunctor.identity_functor(action.space))
        assert_revalidates(*(stabilizer(action, x) for x in action.space.objects))


class TestTrustedNonVacuity:
    def test_twist_with_swapped_factors(self):
        """h_ba . h_b^-1 . h_a^-1 in place of h_ba . h_a^-1 . h_b^-1 on the
        non-central S3 flag complex: the oracle rejects it."""
        action, h = s3_flag_action()
        built = complex_of_groups(action, h_elements=h)
        cplx, hs, group = built.complex, built.to_group.h_elements, action.group
        swapped = {
            (b, a): group.mul(hs[cplx.base.compose(b, a)], group.mul(group.inv(hs[b]), group.inv(hs[a])))
            for b, a in cplx.twists
        }
        assert swapped != cplx.twists
        with pytest.raises(ValidationError, match="conjugation identity fails"):
            assert_complex_revalidates(unvalidated(
                ComplexOfGroups, base=cplx.base, local=cplx.local, homs=cplx.homs, twists=swapped))
        assert_complex_revalidates(cplx)

    def test_one_wrong_eta_component(self):
        """BZ/2 x (x ~ y) has two isomorphisms between its two objects, so a
        skeleton's eta can take the other one at a single object."""
        cat = product(zoo.one_object_category(cyclic_group(2)), zoo.contractible_groupoid("xy"))
        sk = skeleton(cat)
        x, c = next((x, c) for x, c in sk.eta.items() if not cat.is_identity(c))
        other = next(u for u in cat.hom(cat.source(c), x) if u != c)
        with pytest.raises(NotNatural, match="naturality fails"):
            assert_retraction_data(cat, sk.inclusion, sk.retraction, {**sk.eta, x: other})
        assert_retraction_data(cat, sk.inclusion, sk.retraction, sk.eta)


    def test_an_inflation_lift_without_its_copy_offset(self):
        """Each copy of the circle's swapped objects sent to the first copy
        of its image: the oracle sees that the element does not permute."""
        lifted = inflate_action_without_offset(randgen.circle_action(), {"x": 2, "x2": 2})
        with pytest.raises(NotAFunctorAction, match="does not permute the objects"):
            assert_revalidates(lifted)
        assert_revalidates(randgen.inflate_action(randgen.circle_action(), {"x": 2, "x2": 2}))

    def test_automorphisms_with_a_wrong_inverse(self, monkeypatch):
        """Z/3 with every element read as its own inverse: the oracle sees it."""
        cat = zoo.one_object_category(cyclic_group(3))
        monkeypatch.setattr(cat._ends, "inv", {m: m for m in cat._ends.inv})
        with pytest.raises(AssertionError):
            assert_same_group(iso_classes(cat).aut["*"])


def assert_same_group(group: FinGroup) -> None:
    """The oracle for a group built with ``errors._trusted``: the group
    constructor accepts its labels and table and finds the same identity
    and inverses."""
    checked = FinGroup(group.labels, group.table, name=group.name)
    fields = ("labels", "table", "name", "_index", "_identity", "_inverse")
    assert [getattr(checked, f) for f in fields] == [getattr(group, f) for f in fields]


CHECKED_CLASSES = (ComplexOfGroups, GroupHom, CatFunctor, ScwolAction, CellSpectrum,
                   PseudoDiagram, StrictDiagram)


@settings(max_examples=20, deadline=None)
@given(ANY_ACTION)
def test_derived_paths_run_no_constructor_check(action):
    """``complex_of_groups``, ``skeleton``, ``skeletal_reduction``,
    ``equivariant_skeleton`` and ``bar_spectrum`` of a validated action and
    its space run no ``__post_init__`` of the checked classes."""
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in CHECKED_CLASSES:
            real = cls.__post_init__
            mp.setattr(cls, "__post_init__",
                       lambda self, _real=real: ran.append(type(self).__name__) or _real(self))
        complex_of_groups(action)
        skeleton(action.space)
        skeletal_reduction(action)
        equivariant_skeleton(action)
        bar_spectrum(action.space)
    assert ran == []
