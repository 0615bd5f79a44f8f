#!/usr/bin/env python3
"""Randomized cross-check of the homotopy colimit formula (with Leinster's
Lemma 1.3: the weighting and coweighting of each total have one sum) and
the group action theorems, at configurable scale.  Each section prints its
seconds, and of those the seconds spent drawing its random instances.

Example:
    python scripts/randomized_audit.py --instances 500 --seed 42
"""

import argparse
import sys
import time
from random import Random

from eulcat import randgen
from eulcat.eulerchar import chi_scwol
from eulcat.fincat import classify
from eulcat.groupact import chi_theorems, quotient, skeletal_reduction
from eulcat.hocolim import check_hocolim_formula, grothendieck
from eulcat.ratlin import coweighting, weighting


class Section:
    """The seconds of one section of the audit, with the share spent
    drawing its instances apart from the share spent checking them."""

    def __init__(self):
        self.start = time.perf_counter()
        self.drawing = 0.0

    def draw(self, make, rng):
        t0 = time.perf_counter()
        instance = make(rng)
        self.drawing += time.perf_counter() - t0
        return instance

    def __str__(self):
        return f"{time.perf_counter() - self.start:.2f}s ({self.drawing:.2f}s drawing)"


def audit(instances: int, seed: int) -> int:
    rng = Random(seed)
    section = Section()
    failures = 0

    for i in range(instances):
        d = section.draw(randgen.random_strict_diagram, rng)
        rep = check_hocolim_formula(d, "chiL")
        total = grothendieck(d).category
        flags = classify(total)
        if not (rep.equal and flags.is_directly_finite and flags.is_EI):
            failures += 1
            print(f"FORMULA FAIL at instance {i}: lhs={rep.lhs} rhs={rep.rhs}")
        # Leinster's Lemma 1.3, which chi_L takes as proved on an acyclic support
        w, v = weighting(total).total(), coweighting(total).total()
        if w != v:
            failures += 1
            print(f"LEINSTER FAIL at instance {i}: weighting={w} coweighting={v}")
    print(f"homotopy colimit formula: {instances} instances, {failures} failures, {section}")

    section = Section()
    action_failures = 0
    n_free = max(10, instances // 4)
    for i in range(n_free):
        action = section.draw(randgen.random_free_action, rng)
        q = quotient(action)
        if chi_scwol(q.category) * action.group.order != chi_scwol(action.space):
            action_failures += 1
            print(f"FREE-QUOTIENT FAIL at instance {i}")
    print(f"free quotient law: {n_free} instances, {action_failures} failures, {section}")

    section = Section()
    reduction_failures = 0
    n_actions = max(10, instances // 10)
    for i in range(n_actions):
        action = section.draw(randgen.random_action, rng)
        if not skeletal_reduction(action).report.all_hold():
            reduction_failures += 1
            print(f"REDUCTION FAIL at instance {i}")
        if not chi_theorems(action).all_hold():
            reduction_failures += 1
            print(f"CHI-THEOREMS FAIL at instance {i}")
    print(
        f"skeletal reduction + chi theorems: {n_actions} actions, "
        f"{reduction_failures} failures, {section}"
    )

    return 1 if failures or action_failures or reduction_failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    return audit(args.instances, args.seed)


if __name__ == "__main__":
    sys.exit(main())
