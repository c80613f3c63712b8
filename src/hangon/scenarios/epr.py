"""EPR singlet runs from a single observer's point of view.

One observer (the asker) measures her particle and asks the other party for
his result; the other party never appears as an observer, only as a record
subsystem that an entangling step correlates with his particle. Both
measurement orders are supported: the entangling step may run before or
after the asker's own spin measurement, and the joint statistics must not
care. Anti-correlation is structural: the asker's reply is sampled inside
her own hung-on branch, so same-sign joint outcomes never occur.

The same machinery covers the partially determining pair: a two-particle
state in which one outcome of the first measurement pins the second
measurement down completely while the other leaves it an even coin flip.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ..analysis import Entangle, Observe, Schedule
from ..engine import Universe
from ..errors import ConfigError, SimulationError
from ..rng import RngStream
from ..states import Observable, StateVector, Subsystem, label_observable, make_state, tensor

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)

SPIN_LABELS = ("+", "-")
ORDERS = ("alice_first", "bob_record_first")

_A = Subsystem("A", SPIN_LABELS)
_B = Subsystem("B", SPIN_LABELS)
_RECORD = Subsystem("bob_record", ("ready",) + SPIN_LABELS)


@functools.cache
def singlet_state() -> StateVector:
    """(|+->-|-+>)/sqrt(2) over particles A and B: built once per process,
    the same immutable state on every call."""
    return make_state(
        [_A, _B],
        [(("+", "-"), INV_SQRT2), (("-", "+"), -INV_SQRT2)],
    )


def build_epr_universe(*, with_record: bool = False) -> Universe:
    """Universe holding the singlet; optionally with the partner's
    still-ready record subsystem attached."""
    return Universe(_singlet_with_record() if with_record else singlet_state())


@functools.cache
def _ready_record() -> StateVector:
    """The partner's record before it has fired, shared like the singlet."""
    return make_state([_RECORD], [(("ready",), 1.0)])


def _singlet_with_record() -> StateVector:
    """A new product of the shared factors on each call (see README,
    "Shared scenario states")."""
    return tensor(singlet_state(), _ready_record())


def a_spin() -> Observable:
    return label_observable(_A, name="A_spin")


def b_spin() -> Observable:
    return label_observable(_B, name="B_spin")


def record_observable() -> Observable:
    return label_observable(_RECORD, name="bob_record")


@dataclass(frozen=True)
class EprRun:
    """Joint counts over (asker outcome, reply) plus the analytic joint."""

    order: str
    n: int
    seed: int
    counts: dict
    analytic: dict

    @property
    def same_sign_count(self) -> int:
        return self.counts.get(("+", "+"), 0) + self.counts.get(("-", "-"), 0)


def epr_schedule(order: str) -> Schedule:
    """The asker measures A and asks for the partner's record, which an
    entangling step correlates with B before or after her measurement."""
    if order not in ORDERS:
        raise ConfigError(f"order must be one of {ORDERS}")
    record = Entangle(b_spin(), _RECORD, {"+": "+", "-": "-"})
    mine = Observe(a_spin())
    steps = (record, mine) if order == "bob_record_first" else (mine, record)
    return Schedule(_singlet_with_record(), steps + (Observe(record_observable()),))


def _spin_pairs(table: dict) -> dict:
    """Drop the record's "ready" cells: it has fired before anyone asks, so
    any weight or count there is a defect."""
    if any(v for pair, v in table.items() if "ready" in pair):
        raise SimulationError("the partner's record replied 'ready'")
    return {pair: v for pair, v in table.items() if "ready" not in pair}


def run_epr(order: str, n: int, seed: int) -> EprRun:
    """n independent single-pair runs in the given measurement order."""
    schedule = epr_schedule(order)
    if n < 1:
        raise ConfigError("need at least one run")
    counts = _spin_pairs(schedule.counts(n, RngStream(seed)))
    return EprRun(order, n, seed, counts, epr_joint_distribution(order))


def epr_joint_distribution(order: str) -> dict[tuple[str, str], float]:
    """Analytic joint over (asker outcome, reply), by forced chain walks
    through the engine in the given order."""
    return _spin_pairs(epr_schedule(order).joint())


# --- the partially determining pair (CLI scenario id: eq9) ---------------

_FIRST = Subsystem("first", ("X", "Y"))
_SECOND = Subsystem("second", ("a", "b"))


def partial_pair_state() -> StateVector:
    """(1/sqrt3)[(X,a) + (X,b) + (Y,a)]: finding X leaves the partner an even
    coin flip, finding Y pins it to a."""
    return make_state(
        [_FIRST, _SECOND],
        [
            (("X", "a"), INV_SQRT3),
            (("X", "b"), INV_SQRT3),
            (("Y", "a"), INV_SQRT3),
        ],
    )


def first_observable() -> Observable:
    return label_observable(_FIRST, name="first")


def second_observable() -> Observable:
    return label_observable(_SECOND, name="second")


@dataclass(frozen=True)
class PartialPairRun:
    n: int
    seed: int
    counts: dict
    analytic: dict


def partial_pair_schedule() -> Schedule:
    return Schedule(partial_pair_state(), (Observe(first_observable()), Observe(second_observable())))


def partial_pair_joint_distribution() -> dict[tuple[str, str], float]:
    """Analytic joint over (first, second) outcomes via forced chain walks."""
    return partial_pair_schedule().joint()


def run_partial_pair(n: int, seed: int) -> PartialPairRun:
    """n sequential first-then-second measurements on fresh pairs."""
    if n < 1:
        raise ConfigError("need at least one run")
    counts = partial_pair_schedule().counts(n, RngStream(seed))
    return PartialPairRun(n, seed, counts, partial_pair_joint_distribution())
