"""Hypothesis strategies: seeded wrappers around the package's generators."""

from random import Random

from hypothesis import strategies as st

from eulcat import randgen

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def seeded(fn, **kwargs):
    return SEEDS.map(lambda s: fn(Random(s), **kwargs))


skeletal_scwols = seeded(randgen.random_skeletal_scwol, max_objects=6)
scwols = seeded(randgen.random_scwol, max_objects=6)
posets = seeded(randgen.random_poset, max_objects=5)
groupoids = seeded(randgen.random_groupoid, max_objects=4, max_group_order=4)
strict_diagrams = seeded(randgen.random_strict_diagram)
free_actions = seeded(randgen.random_free_action)
# Seeds of 0-299 whose complex of groups has a twist that is not its own
# inverse; a plain seed yields one only rarely, and without one a twist used
# in place of its inverse goes unnoticed.
TWISTED_ACTION_SEEDS = (14, 18, 36, 59, 67, 89, 127, 166, 180, 190, 203, 239, 298)
actions = st.one_of(
    seeded(randgen.random_action),
    st.sampled_from(TWISTED_ACTION_SEEDS).map(lambda s: randgen.random_action(Random(s))),
)
groups = seeded(randgen.random_group, max_order=6)
small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
