"""The Grothendieck builder, its hom counts and Haefliger's sum read a
diagram on index arrays.

``hocolim._index_view`` turns a checked diagram into integer lists once: the
rows of its index, its vertices' rows, each edge's arrays and the coherence
components by index.  ``_grothendieck``, ``_Numbering.runs``,
``_lifted_inverses`` and ``_total_counts`` read that view, and
``groupact.haefliger_chi`` finds its representatives on ``_ends``.  The
name walks they replaced are kept in ``helpers`` as references
(``reference_total_arrays``, ``reference_total_counts``,
``reference_haefliger_chi``); on drawn diagrams, stores with shuffled
entries and scwols, each pair gives the same names, arrays, composites,
hom-count rows, representatives, sums and failures.  The rejections on this
path that no other test reaches are pinned here by class, message and
witness.
"""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import fincat, groupact, hocolim, manifest, randgen, ratlin, zoo
from eulcat.cli import main
from eulcat.errors import EulcatError, ValidationError
from eulcat.groupact import haefliger_chi
from eulcat.groups import cyclic_group
from eulcat.fincat import CatFunctor, FinCat
from eulcat.hocolim import CoherenceFailure, PseudoDiagram, StrictDiagram, constant_diagram

from helpers import (
    keyed_rows,
    loaded,
    monoid_z2_mult,
    reference_composite_maps,
    reference_haefliger_chi,
    reference_strict_diagram_checks,
    reference_total_arrays,
    reference_total_counts,
    reloaded_diagram,
    split_idempotent,
    unvalidated,
)
from strategies import SEEDS, pseudo_diagrams, scwols, small_rationals, strict_diagrams
from test_grothendieck import twisted_over_z2
from test_hocolim import with_extra_key


def failure(fn, *args):
    """None on success, else the class, message and witness of the failure."""
    try:
        fn(*args)
    except EulcatError as exc:
        return type(exc), str(exc), exc.witness
    except KeyError as exc:
        return KeyError, str(exc), None
    return None


def pseudo_payload() -> dict:
    """The manifest payload of the circle action's complex, as a pseudo
    diagram."""
    cplx = groupact.complex_of_groups(randgen.circle_action()).complex
    p = groupact.complex_to_pseudo_diagram(cplx)
    return json.loads(json.dumps(manifest.serialize("pseudo_diagram", p)["payload"]))


class TestRejections:
    def test_no_unit_isomorphism_at_an_index_object(self, tmp_path, capsys):
        payload = pseudo_payload()
        dropped = sorted(payload["unit"])[-1]
        del payload["unit"][dropped]
        data = {"schema": 1, "kind": "pseudo_diagram", "payload": payload}
        with pytest.raises(CoherenceFailure) as err:
            manifest.parse(data)
        assert str(err.value) == f"no unit isomorphism at {dropped!r}"
        assert err.value.witness == {"object": dropped}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["--json", "hocolim", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err.value}\n"

    @pytest.mark.parametrize("pair", [("a", "a"), ("ghost", "a"), ("a", "ghost")],
                             ids=["non-composable", "unknown-first", "unknown-second"])
    def test_comp_for_a_non_composable_pair(self, pair):
        """The manifest rejects such an entry first; a library diagram
        reaches the constructor's own check, after the entries before it."""
        index = zoo.pushout_scwol()
        a = next(m for m in index.morphism_names() if not index.is_identity(m))
        pair = tuple(a if x == "a" else x for x in pair)
        p = PseudoDiagram.from_strict(constant_diagram(index, monoid_z2_mult()))
        comp = {**p.comp, pair: {"*": "1"}}
        with pytest.raises(CoherenceFailure) as err:
            PseudoDiagram(p.index, p.vertex, p.edge, comp, p.unit)
        assert str(err.value) == f"comp given for non-composable pair ({pair[0]!r}, {pair[1]!r})"
        assert err.value.witness == {"pair": pair}

    def test_complex_without_a_structure_homomorphism(self, tmp_path, capsys):
        cplx = groupact.complex_of_groups(randgen.circle_action()).complex
        payload = json.loads(json.dumps(manifest.serialize("complex", cplx)["payload"]))
        dropped = sorted(payload["homs"])[0]
        del payload["homs"][dropped]
        data = {"schema": 1, "kind": "complex", "payload": payload}
        with pytest.raises(manifest.BadManifest) as err:
            manifest.parse(data)
        assert str(err.value) == f"no structure homomorphism for {dropped!r}"
        assert err.value.witness == {"morphism": dropped}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["--json", "hocolim-groups", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err.value}\n"


def mutated_edges(d, rng, how):
    """The edges of ``d`` with one edge given an extra key (``stray``), an
    edge set to that of a parallel morphism (``swap``), or an identity edge
    at a one-object vertex set to inversion or conjugation, where it is a
    functor (each only where there is one to make)."""
    edge, idx = dict(d.edge), d.index
    if how == "stray":
        m = rng.choice(sorted(edge))
        edge[m] = with_extra_key(edge[m], rng)
        return edge
    if how == "swap":
        ends = {m: (idx.source(m), idx.target(m)) for m in sorted(edge)}
        pairs = [(m, n) for m in ends for n in ends if m != n and ends[m] == ends[n]]
        if pairs:
            m, n = rng.choice(pairs)
            edge[m] = edge[n]
        return edge
    x = rng.choice(idx.objects)
    cat = d.vertex[x]
    if len(cat.objects) == 1 and fincat._is_groupoid(cat):  # inversion, or conjugation
        names = cat.morphism_names()
        g = rng.choice(names)
        for mor_map in ({f: cat.inverse(f) for f in names},
                        {f: cat.compose(g, cat.compose(f, cat.inverse(g))) for f in names}):
            try:
                edge[idx.identity[x]] = CatFunctor(cat, cat, {cat.objects[0]: cat.objects[0]}, mor_map)
                break
            except ValidationError:
                pass
    return edge


def indexes(d) -> tuple:
    """The index of ``d`` and a checked copy of it that lists its entries
    backwards.  A written index lists its identity rows first, so the check
    meets a stray key at (m, id); backwards, a pair (g, m) comes first,
    where the name-dict reference raises KeyError on a stray key that names
    nothing."""
    idx = d.index
    return idx, FinCat(idx.objects, idx.morphisms, dict(idx.identity),
                       dict(reversed(idx.composition.items())), name=idx.name)


class TestStrictCheck:
    @settings(max_examples=80, deadline=None)
    @given(strict_diagrams, SEEDS, st.sampled_from(("stray", "swap", "identity")))
    def test_as_by_names(self, d, seed, how):
        """The check on arrays and the name-dict check it replaced give the
        same class, message and witness on a diagram with one edge changed,
        over either index; where the reference raises KeyError on a stray
        key, the check fails the compare at that pair."""
        edge = mutated_edges(d, Random(seed), how)
        for index in indexes(d):
            got = failure(StrictDiagram, index, d.vertex, edge)
            want = failure(reference_strict_diagram_checks,
                           unvalidated(StrictDiagram, index=index, vertex=d.vertex, edge=edge))
            if want is not None and want[0] is KeyError:
                (v, u), vu = next(pair for pair in index.composition.items() if failure(
                    reference_composite_maps, edge[pair[0][1]], edge[pair[0][0]]))
                want = (ValidationError,
                        f"strictness fails: edge({vu!r}) != edge({v!r}) o edge({u!r})",
                        {"pair": (v, u)})
            assert got == want

    def test_every_kind_of_rejection_is_seen(self):
        """Non-vacuity: over a few seeds each mutation is rejected at least
        once, and a stray key only ever as a failed compare."""
        seen = set()
        for seed in range(60):
            d = randgen.random_strict_diagram(Random(seed))
            for how in ("stray", "swap", "identity"):
                edge = mutated_edges(d, Random(seed), how)
                for index in indexes(d):
                    got = failure(StrictDiagram, index, d.vertex, edge)
                    if got is not None:
                        seen.add((how, got[0]))
        assert {how for how, _ in seen} == {"stray", "swap", "identity"}
        assert {cls for how, cls in seen if how == "stray"} == {ValidationError}

    def test_a_stray_key_over_the_backwards_index(self):
        """An edge with a map key that names nothing fails the compare over
        either entry order: the written opposite of the pushout meets it at
        (g, id_k), and its backwards copy at (id_j, g), where the first
        edge's stray key was looked up in the second edge's map and raised a
        bare KeyError."""
        d = constant_diagram(fincat.opposite(zoo.pushout_scwol()), zoo.arrow_category())
        g = d.edge["g"]
        edge = {**d.edge, "g": CatFunctor(g.source, g.target, dict(g.obj_map),
                                          {**g.mor_map, "?extra": "?nowhere"})}
        got = [failure(StrictDiagram, index, d.vertex, edge) for index in indexes(d)]
        assert got == [(ValidationError, f"strictness fails: edge('g') != edge({v!r}) o edge({u!r})",
                        {"pair": (v, u)}) for v, u in (("g", "id_k"), ("id_j", "g"))]


def moving_unit() -> PseudoDiagram:
    """The contractible groupoid on a, b over the terminal index, with
    C(id) the functor that swaps a and b; in a thin category every
    component is the one arrow between its ends and every axiom holds."""
    vertex = zoo.contractible_groupoid(("a", "b"))
    swap = {"a": "b", "b": "a"}
    arrow = {x: f"u[{x}>{y}]" for x, y in swap.items()}
    mor_map = {"id_a": "id_b", "id_b": "id_a", arrow["a"]: arrow["b"], arrow["b"]: arrow["a"]}
    e = "id_i"
    return PseudoDiagram(zoo.terminal_category("i"), {"i": vertex},
                         {e: CatFunctor(vertex, vertex, swap, mor_map)}, {(e, e): arrow}, {"i": arrow})


diagrams = st.one_of(strict_diagrams, pseudo_diagrams)
# each drawn diagram as it was built, and over loaded stores
drawn = st.one_of(diagrams, st.builds(reloaded_diagram, diagrams, SEEDS))


def total_arrays(d) -> dict:
    """What ``_grothendieck`` wrote, in the shape of ``reference_total_arrays``."""
    total = hocolim._grothendieck(d)
    ends = total._ends
    return {"objects": list(total.objects), "morphisms": list(total.morphism_names()),
            "src": ends.src, "tgt": ends.tgt, "ident": ends.ident, "inv": list(ends.inv.items()),
            "directly_finite": total._directly_finite, "rows": keyed_rows(total._ends)}


class TestAsByNames:
    @settings(max_examples=40, deadline=None)
    @given(drawn)
    def test_total(self, d):
        assert total_arrays(d) == reference_total_arrays(d)

    @pytest.mark.parametrize("unit", ["1", "2"])
    def test_total_over_an_invertible_index_arrow(self, unit):
        """A twisted pseudo diagram over B(Z/2): the lifted inverses read
        both coherence inverses."""
        d = twisted_over_z2(unit)
        assert total_arrays(d) == reference_total_arrays(d)

    def test_total_over_an_index_not_directly_finite(self):
        d = constant_diagram(split_idempotent(), zoo.one_object_category(cyclic_group(3)))
        assert total_arrays(d) == reference_total_arrays(d)

    @settings(max_examples=40, deadline=None)
    @given(drawn)
    def test_hom_counts_and_representatives(self, d):
        rows, reps_of = hocolim._total_counts(d)
        want_rows, want_reps = reference_total_counts(d)
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in want_rows]
        assert reps_of() == want_reps

    @pytest.mark.parametrize("d", [
        twisted_over_z2("1"), twisted_over_z2("2"), moving_unit(),
        constant_diagram(zoo.contractible_groupoid(("a", "b")), zoo.contractible_groupoid("xyz")),
    ], ids=["twisted-1", "twisted-2", "moving-unit", "over-a-groupoid"])
    def test_hom_counts_over_invertible_index_arrows(self, d):
        """Classes joined along invertible index arrows, and a unit that
        moves objects within their class."""
        rows, reps_of = hocolim._total_counts(d)
        want_rows, want_reps = reference_total_counts(d)
        assert (rows, reps_of()) == (want_rows, want_reps)
        assert hocolim._total_chi_L(d) == ratlin.chi_L(hocolim._grothendieck(d))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(scwols, st.builds(loaded, scwols, SEEDS)), st.data())
    def test_haefliger_sums_and_witnesses(self, cat, data):
        """Values on every object, one class at a time alike or not, some
        keys dropped and, at times, one that names no object."""
        roots = fincat._iso_roots(cat)
        drawn_vals = [data.draw(small_rationals) for _ in cat.objects]
        alike = data.draw(st.booleans())
        vals = {x: drawn_vals[r] if alike else drawn_vals[k]
                for k, (x, r) in enumerate(zip(cat.objects, roots))}
        for x in data.draw(st.sets(st.sampled_from(cat.objects), max_size=2)):
            del vals[x]
        if data.draw(st.booleans()):
            vals["ghost"] = Fraction(1)
        got = failure(haefliger_chi, cat, vals)
        assert got == failure(reference_haefliger_chi, cat, vals)
        if got is None:
            assert haefliger_chi(cat, vals) == reference_haefliger_chi(cat, vals)

    def test_haefliger_representative_is_the_first_isomorphic_skeleton_object(self):
        fat = zoo.inflate(zoo.pushout_scwol(), {"j": 3})
        vals = {x: Fraction(1) for x in fat.objects}
        vals["j~2"] = Fraction(2)
        got = failure(haefliger_chi, loaded(fat, 1), vals)
        assert got is not None and issubclass(got[0], ValidationError)
        assert got == failure(reference_haefliger_chi, fat, vals)


def fresh(d):
    """``d`` over the same index, vertices and edges, built unchecked: it has
    no view until ``_index_view`` makes one."""
    return unvalidated(StrictDiagram, index=d.index, vertex=d.vertex, edge=d.edge)


class TestOneViewPerDiagram:
    """Each diagram makes its ``_IndexView`` at most once: a checked one
    keeps the view its check built, ``from_strict`` shares its strict
    diagram's, and any other keeps the one made on its first use."""

    @staticmethod
    def views(*sections) -> int:
        """How many views ``sections`` make."""
        made, real = [], hocolim._IndexView.__init__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hocolim._IndexView, "__init__", lambda view, d: made.append(d) or real(view, d))
            for section in sections:
                section()
        return len(made)

    @staticmethod
    def every_use(diagram):
        """The formula check, two builds and the pseudo view of the strict
        diagram ``diagram()``."""
        return [lambda: hocolim.check_hocolim_formula(diagram()),
                lambda: hocolim.grothendieck(diagram()), lambda: hocolim.grothendieck(diagram()),
                lambda: PseudoDiagram.from_strict(diagram())]

    def test_a_checked_strict_diagram(self):
        d = randgen.random_groupoid_diagram(Random(3))
        built = []
        assert self.views(lambda: built.append(
            StrictDiagram(d.index, d.vertex, d.edge)), *self.every_use(lambda: built[0])) == 1
        view = built[0]._view
        assert all(a is f._arrays for a, f in zip(view.arrays, view.edges))  # each edge's own
        assert hocolim._index_view(built[0]) is view

    def test_a_constant_diagram(self):
        d = constant_diagram(zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(3)))
        assert "_view" not in vars(d)
        assert self.views(*self.every_use(lambda: d)) == 1
        assert self.views(*self.every_use(lambda: d)) == 0

    def test_a_checked_pseudo_diagram(self):
        p = PseudoDiagram.from_strict(randgen.random_groupoid_diagram(Random(3)))
        built = []
        assert self.views(lambda: built.append(
            PseudoDiagram(p.index, p.vertex, p.edge, p.comp, p.unit))) == 1
        q = built[0]
        assert self.views(lambda: hocolim.check_hocolim_formula(q),
                          lambda: hocolim.grothendieck_pseudo(q),
                          lambda: hocolim._total_counts(q)) == 0

    def test_from_strict_shares_the_strict_view(self):
        """``from_strict`` of a checked strict diagram makes no view: its
        build, formula check and hom counts read the strict diagram's, whose
        identity coherences are None."""
        d = randgen.random_groupoid_diagram(Random(3))
        d = StrictDiagram(d.index, d.vertex, d.edge)
        built = []
        assert self.views(lambda: built.append(PseudoDiagram.from_strict(d)),
                          lambda: hocolim.grothendieck_pseudo(built[0]),
                          lambda: hocolim.check_hocolim_formula(built[0]),
                          lambda: hocolim._total_counts(built[0])) == 0
        assert built[0]._view is d._view and d._view.comp is None

    @settings(max_examples=30, deadline=None)
    @given(strict_diagrams)
    def test_the_shared_view_builds_the_same_total(self, d):
        """The total of ``from_strict`` on the strict view equals the total
        on a view made from its identity coherence tables."""
        p = PseudoDiagram.from_strict(d)
        tables = unvalidated(PseudoDiagram, index=p.index, vertex=p.vertex, edge=p.edge,
                             comp=p.comp, unit=p.unit)

        def total(p):
            got = hocolim.grothendieck_pseudo(p)
            ends = got._ends
            return (ends.src, ends.tgt, ends.ident, list(ends.inv.items()),
                    got._ends.rows, got.objects, got.morphism_names(),
                    got._directly_finite)

        assert total(p) == total(tables)
        assert tables._view.comp is not None and p._view.comp is None

    def test_a_rejected_pseudo_diagram_keeps_no_view(self):
        """Unchecked and malformed: the view is kept only once it is whole."""
        p = PseudoDiagram.from_strict(constant_diagram(zoo.pushout_scwol(), monoid_z2_mult()))
        unit = {**p.unit, "j": {}}
        q = unvalidated(PseudoDiagram, index=p.index, vertex=p.vertex, edge=p.edge, comp=p.comp,
                        unit=unit)
        with pytest.raises(KeyError):
            hocolim._index_view(q)
        assert "_view" not in vars(q)

    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_kept_and_fresh_views_agree(self, d):
        """The view a check kept, with every edge's arrays made, and one made
        afresh give the same hom counts, totals, composites, names and
        classification."""
        d = StrictDiagram(d.index, d.vertex, d.edge)

        def counts(d):
            rows, reps_of = hocolim._total_counts(d)
            return [list(row.items()) for row in rows], reps_of()

        def total(d):
            got = hocolim.grothendieck(d).category
            ends = got._ends
            return (ends.src, ends.tgt, ends.ident, list(ends.inv.items()),
                    got._ends.rows, got.objects, got.morphism_names(),
                    fincat.classify(got))

        assert counts(d) == counts(fresh(d))
        assert total(d) == total(fresh(d))
        assert "_view" in vars(d)
