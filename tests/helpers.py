"""Constructions that only the tests use, kept out of the library."""

from eulcat import eulerchar, fincat, groupact, hocolim, randgen, ratlin, zoo
from eulcat.fincat import CatFunctor, FinCat, NotNatural
from eulcat.groups import GroupHom, symmetric_group, trivial_group
from eulcat.hocolim import StrictDiagram, constant_diagram
from eulcat.ratlin import RatMatrix
from eulcat.zoo import terminal_category


def nonidentity_paths(cat: FinCat, length: int) -> list[tuple[str, ...]]:
    """All composable tuples of ``length`` non-identity morphisms.

    Finite per length even for non-skeletal scwols (where the total number
    over all lengths is infinite and path_counts must skeletonize first).
    """
    if length == 0:
        return [()]
    paths = [
        (m.name,) for m in cat.morphisms if not cat.is_identity(m.name)
    ]
    for _ in range(length - 1):
        paths = [
            p + (n,)
            for p in paths
            for n in cat.morphisms_from(cat.target(p[-1]))
            if not cat.is_identity(n)
        ]
    return paths


def mor_count_matrix(cat: FinCat) -> RatMatrix:
    """The matrix (|mor(x, y)|) indexed by the category's object order."""
    return RatMatrix.from_rows(
        [[len(cat.hom(x, y)) for y in cat.objects] for x in cat.objects]
    )


def nat_iso_checks(f: CatFunctor, g: CatFunctor, components) -> None:
    """The checks of the former ``NatIso`` class, on two validated functors:
    ``components`` must be a natural isomorphism f => g.  A component that
    names no morphism raises KeyError, as it did there."""
    if f.source is not g.source or f.target is not g.target:
        raise NotNatural("functors are not parallel")
    cat, tgt = f.source, f.target
    for x in cat.objects:
        c = components.get(x)
        if c is None:
            raise NotNatural(f"no component at {x!r}")
        if tgt.source(c) != f.obj_map[x] or tgt.target(c) != g.obj_map[x]:
            raise NotNatural(f"component at {x!r} has wrong endpoints")
        if not tgt.is_invertible(c):
            raise NotNatural(f"component at {x!r} is not invertible")
    for m in cat.morphisms:
        lhs = tgt.compose(components[m.target], f.mor_map[m.name])
        rhs = tgt.compose(g.mor_map[m.name], components[m.source])
        if lhs != rhs:
            raise NotNatural(f"naturality fails at morphism {m.name!r}")


def trivial_diagram(index: FinCat) -> StrictDiagram:
    return constant_diagram(index, terminal_category())


def split_idempotent():
    """s: y -> x and r: x -> y with r o s = id_y and s o r = e, an
    idempotent on x that is not an identity: not EI, and x, y are not
    isomorphic, so the support stays cyclic after condensation."""
    return zoo.build_category(
        ["x", "y"],
        [("e", "x", "x"), ("s", "y", "x"), ("r", "x", "y")],
        {("r", "s"): "id_y", ("s", "r"): "e", ("e", "e"): "e", ("e", "s"): "s",
         ("r", "e"): "r"},
        name="split",
    )


def count_calls(monkeypatch, counts: dict) -> None:
    """Count, in ``counts``, the calls of each library function named there,
    through every library module that binds it."""

    for name in counts:
        for module in (fincat, hocolim, eulerchar, ratlin, groupact):
            real = getattr(module, name, None)
            if real is None:
                continue

            def wrapper(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)


def s3_chain(conjugating: bool = False, twist: str = "021"):
    """Arguments ``(base, local, homs, twists)`` of a complex of groups over
    the chain 0 -a-> 1 -b-> 2 whose twist at (b, a) is a transposition.

    A transposition commutes with no 3-cycle, so products with the twist
    depend on the order of their factors; no randomly drawn action yields
    such a twist.  By default the local groups are 1, S3, S3 with F(b) = id,
    and every ``twist`` gives a valid complex.  With ``conjugating`` they are
    S3, S3, S3 with F(a) = F(b o a) = id and F(b) conjugation by "021"; the
    conjugation identity then holds only for the twist "021".
    """
    base = zoo.build_category(
        ("0", "1", "2"),
        (("a", "0", "1"), ("b", "1", "2"), ("ba", "0", "2")),
        {("b", "a"): "ba"},
    )
    s3 = symmetric_group(3)
    local = {"0": s3 if conjugating else trivial_group(), "1": s3, "2": s3}
    homs = {base.identity[x]: GroupHom.identity_hom(local[x]) for x in base.objects}
    if conjugating:
        by_t = GroupHom(s3, s3, {g: s3.conjugate(g, "021") for g in s3.labels})
        homs.update(a=homs["id_0"], b=by_t, ba=homs["id_0"])
    else:
        one = local["0"]
        to_s3 = GroupHom(one, s3, {one.identity: s3.identity})
        homs.update(a=to_s3, b=GroupHom.identity_hom(s3), ba=to_s3)
    twists = {pair: local[base.target(pair[0])].identity for pair in base.composition}
    twists[("b", "a")] = twist
    return base, local, homs, twists


def s3_flag_action():
    """S3 acting on the poset Y -> p -> q -> r, where Y = {y0, y1, y2} is
    S3/<021> and p, q, r are fixed points, with h elements chosen so that
    the twists of the associated complex are non-central: two are 3-cycles,
    and the two factors of the cocycle identity on (qr, pq, y0p) do not
    commute.

    Returns the action and the h elements to pass to ``complex_of_groups``.
    Any h is valid here, since every lift ends at a fixed point.  The
    defaults pick h = e throughout, and randomly drawn actions only have
    abelian groups, so neither reaches a twist that fails to commute with
    the images of the structure maps.
    """
    s3 = symmetric_group(3)
    cosets, on_cosets = randgen.coset_gset(s3, ("012", "021"), prefix="y")
    apexes = ("p", "q", "r")
    arrows = [(f"{y}{z}", y, z) for y in cosets for z in apexes]
    arrows += [("pq", "p", "q"), ("pr", "p", "r"), ("qr", "q", "r")]
    compose = {("qr", "pq"): "pr"}
    for y in cosets:
        compose.update({("pq", f"{y}p"): f"{y}q", ("pr", f"{y}p"): f"{y}r",
                        ("qr", f"{y}q"): f"{y}r"})
    space = zoo.build_category(tuple(cosets) + apexes, arrows, compose, name="flag")

    def moved(g, x):
        return on_cosets[g].get(x, x)

    on_objects = {g: {x: moved(g, x) for x in space.objects} for g in s3.labels}
    on_morphisms = {
        g: {m.name: next(n for n in space.hom(moved(g, m.source), moved(g, m.target)))
            for m in space.morphisms}
        for g in s3.labels
    }
    action = groupact.ScwolAction(s3, space, on_objects, on_morphisms)
    h_elements = {"y0p": "012", "pq": "012", "qr": "021", "y0q": "102", "pr": "012", "y0r": "120"}
    return action, h_elements
