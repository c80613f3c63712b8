"""Engine programs and joint distributions over observations.

A ``Schedule`` is one observer's fixed program over an initial state, and
``Schedule.run`` is the one interpreter of such programs. It has three
kinds of step:

- ``Entangle(system_obs, pointer, correlation)`` premeasures a pointer
  (``Universe.entangle_step``); for the observer it is entanglement, not a
  result;
- ``Observe(obs, t_happened=None)`` measures ``obs``, and a reply is an
  ``Observe`` of the partner's record. ``t_happened`` dates the fact it
  records, never after the clock, as ``Universe.observe`` requires;
- ``Advance(to)`` moves the clock forward (``Universe.advance_clock``).

A schedule samples trials on fresh universes, or forces its observations
onto chosen outcomes and multiplies the step-by-step branch probabilities
(the chain rule an observer lives); clock advances and dates change neither
the draws nor the weights. Two independent routes give the same joint:
``sequential_joint_distribution`` walks the engine that way, and
``born_joint_distribution`` never touches it, summing the squared moduli of
the global state's terms under their outcome combinations. Their agreement
is the oracle check for the whole branching machinery.

``counts``, ``joint`` and ``sequential_joint_distribution`` each pass one
engine answer table into every universe they build, so their trials and
walks premeasure, project and weigh each branch once per call; the table is
dropped when the call returns.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Mapping, NamedTuple, Sequence

from .engine import ObserverHandle, Universe, _AnswerTable, force_observe
from .errors import EmptyBranch
from .states import Observable, StateVector, Subsystem


class Entangle(NamedTuple):
    """Premeasure ``system_obs`` against a pointer (``Universe.entangle_step``)."""

    system_obs: Observable
    pointer: Subsystem
    correlation: Mapping[str, str]


class Observe(NamedTuple):
    """Measure ``obs``, dating its fact ``t_happened`` (default: now); a
    reply is an ``Observe`` of the partner's record."""

    obs: Observable
    t_happened: int | None = None


class Advance(NamedTuple):
    """Move the clock forward to ``to`` (``Universe.advance_clock``)."""

    to: int


def _combinations(observables: Sequence[Observable]):
    return iter_product(*(o.class_names for o in observables))


@dataclass(frozen=True)
class Schedule:
    """Entangle, observe and advance steps over one initial state, one
    observer."""

    initial: StateVector
    steps: tuple[Entangle | Observe | Advance, ...]

    def _observables(self) -> list[Observable]:
        return [step.obs for step in self.steps if isinstance(step, Observe)]

    def run(
        self, rng, *, _answers: _AnswerTable | None = None
    ) -> tuple[Universe, ObserverHandle, tuple[str, ...]]:
        """One sampled trial on a fresh universe, one draw per observation."""
        universe = Universe(self.initial, _answers=_answers)
        observer = universe.register_observer("alice")
        outcomes = []
        for step in self.steps:
            if isinstance(step, Observe):
                outcomes.append(universe.observe(observer, step.obs, rng, step.t_happened))
            elif isinstance(step, Entangle):
                universe.entangle_step(*step)
            else:
                universe.advance_clock(step.to)
        return universe, observer, tuple(outcomes)

    def counts(self, n: int, rng) -> dict[tuple[str, ...], int]:
        """Outcome tallies over ``n`` trials, every combination listed.

        ``n`` is an integer: a float, a string or a bool raises TypeError,
        and a negative count raises ValueError, before anything is drawn."""
        if isinstance(n, bool):
            raise TypeError("trial count must be an integer, not a bool")
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"trial count must be non-negative, got {n}")
        tally = dict.fromkeys(_combinations(self._observables()), 0)
        answers = _AnswerTable()
        for _ in range(n):
            tally[self.run(rng, _answers=answers)[2]] += 1
        return tally

    def walk(
        self, outcomes: Sequence[str], *, _answers: _AnswerTable | None = None
    ) -> tuple[Universe, ObserverHandle, float]:
        """Force the observations onto ``outcomes`` in turn and return the
        chain product of their branch probabilities, 0.0 at the first outcome
        without support. The walk stops before the first observation that
        ``outcomes`` does not reach; more outcomes than observations raise
        ValueError before anything runs."""
        observations = len(self._observables())
        if len(outcomes) > observations:
            raise ValueError(f"{len(outcomes)} outcomes for {observations} observations")
        universe = Universe(self.initial, _answers=_answers)
        observer = universe.register_observer("alice")
        todo = iter(outcomes)
        p = 1.0
        for step in self.steps:
            if isinstance(step, Entangle):
                universe.entangle_step(*step)
            elif isinstance(step, Advance):
                universe.advance_clock(step.to)
            else:
                outcome = next(todo, None)
                if outcome is None:
                    break
                try:
                    p *= force_observe(universe, observer, step.obs, outcome, t_happened=step.t_happened)
                except EmptyBranch:
                    return universe, observer, 0.0
        return universe, observer, p

    def joint(self) -> dict[tuple[str, ...], float]:
        """Exact joint over the observations: one ``walk`` per combination of
        all outcomes but the last, whose weights are read, not observed."""
        observables = self._observables()
        if not observables:
            return {(): 1.0}
        *head, last = observables
        joint: dict[tuple[str, ...], float] = {}
        answers = _AnswerTable()
        for prefix in _combinations(head):
            universe, observer, p = self.walk(prefix, _answers=answers)
            weights = universe.branch_probabilities(observer, last) if p > 0.0 else {}
            for cls in last.class_names:
                joint[prefix + (cls,)] = p * weights.get(cls, 0.0)
        return joint


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
        for combo in _combinations(observables)
    }


def sequential_joint_distribution(
    state: StateVector, observables: Sequence[Observable]
) -> dict[tuple[str, ...], float]:
    """Chain product of branch probabilities along every forced engine path.

    Unlike ``Schedule.joint`` this forces the last observation too, one
    ``observe`` per positive prefix of every combination."""
    schedule = Schedule(state, tuple(Observe(o) for o in observables))
    answers = _AnswerTable()
    return {combo: schedule.walk(combo, _answers=answers)[2] for combo in _combinations(observables)}


def l1_distance(
    a: dict[tuple[str, ...], float], b: dict[tuple[str, ...], float]
) -> float:
    keys = set(a) | set(b)
    return math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
