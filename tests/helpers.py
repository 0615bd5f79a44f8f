"""Constructions that only the tests use, kept out of the library."""

from eulcat import eulerchar, fincat, groupact, hocolim, ratlin
from eulcat.fincat import FinCat
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


def trivial_diagram(index: FinCat) -> StrictDiagram:
    return constant_diagram(index, terminal_category())


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
