"""Joint-distribution enumeration over observation sequences.

Two deliberately independent routes to the same numbers:

* ``sequential_joint_distribution`` drives the real engine — for every
  outcome combination it replays a forced hanging-on path and multiplies the
  step-by-step branch probabilities (the chain rule an observer lives).
* ``born_joint_distribution`` never touches the engine: it files the
  global state's terms under their outcome combinations directly and sums
  squared moduli.

Their agreement is the oracle check for the whole branching machinery.
"""
from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Sequence

from .engine import Universe, force_observe
from .states import Observable, StateVector


def born_joint_distribution(
    state: StateVector, observables: Sequence[Observable]
) -> dict[tuple[str, ...], float]:
    """Direct Born weights over outcome combinations, in one pass over the
    terms: each squared modulus is filed under its tuple of outcome classes,
    then each combination's bucket is summed with ``fsum``. A combination no
    term reaches (such as two disagreeing classes on one subsystem) weighs
    exactly 0.0.
    """
    lookups = [(state.subsystem_index(o.subsystem.name), o._class_of) for o in observables]
    buckets: dict[tuple[str | None, ...], list[float]] = {}
    for labels, a in state.terms.items():
        combo = tuple(class_of.get(labels[i]) for i, class_of in lookups)
        buckets.setdefault(combo, []).append(a.real * a.real + a.imag * a.imag)
    return {
        combo: math.fsum(buckets.get(combo, ()))
        for combo in iter_product(*(o.class_names for o in observables))
    }


def sequential_joint_distribution(
    state: StateVector, observables: Sequence[Observable]
) -> dict[tuple[str, ...], float]:
    """Chain product of branch probabilities along every forced engine path."""
    joint: dict[tuple[str, ...], float] = {}
    for n, combo in enumerate(iter_product(*(o.class_names for o in observables))):
        universe = Universe(state)
        observer = universe.register_observer(f"enum{n}")
        p = 1.0
        for obs, outcome in zip(observables, combo):
            step = universe.branch_probabilities(observer, obs)[outcome]
            p *= step
            if p <= 0.0:
                p = 0.0
                break
            force_observe(universe, observer, obs, outcome)
        joint[combo] = p
    return joint


def l1_distance(
    a: dict[tuple[str, ...], float], b: dict[tuple[str, ...], float]
) -> float:
    keys = set(a) | set(b)
    return math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
