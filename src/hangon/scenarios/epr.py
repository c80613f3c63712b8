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

import math
from dataclasses import dataclass

from ..engine import Universe, create_universe, force_observe
from ..errors import ConfigError
from ..rng import RngStream
from ..states import Observable, StateVector, Subsystem, label_observable, make_state, tensor

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)

SPIN_LABELS = ("+", "-")
ORDERS = ("alice_first", "bob_record_first")

_A = Subsystem("A", SPIN_LABELS)
_B = Subsystem("B", SPIN_LABELS)
_RECORD = Subsystem("bob_record", ("ready",) + SPIN_LABELS)


def singlet_state() -> StateVector:
    """(|+->-|-+>)/sqrt(2) over particles A and B."""
    return make_state(
        [_A, _B],
        [(("+", "-"), INV_SQRT2), (("-", "+"), -INV_SQRT2)],
    )


def build_epr_universe(*, with_record: bool = False) -> Universe:
    """Universe holding the singlet; optionally with the partner's
    still-ready record subsystem attached."""
    state = singlet_state()
    if with_record:
        state = tensor(state, make_state([_RECORD], [(("ready",), 1.0)]))
    return create_universe(state)


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


_CORRELATION = {"+": "+", "-": "-"}


def run_epr(order: str, n: int, seed: int) -> EprRun:
    """n independent single-pair runs in the given measurement order."""
    if order not in ORDERS:
        raise ConfigError(f"order must be one of {ORDERS}")
    if n < 1:
        raise ConfigError("need at least one run")
    base = tensor(singlet_state(), make_state([_RECORD], [(("ready",), 1.0)]))
    obs_a, obs_b, obs_rec = a_spin(), b_spin(), record_observable()
    rng = RngStream(seed)
    counts: dict[tuple[str, str], int] = {
        ("+", "-"): 0,
        ("-", "+"): 0,
        ("+", "+"): 0,
        ("-", "-"): 0,
    }
    for _ in range(n):
        u = create_universe(base)
        alice = u.register_observer("alice")
        if order == "bob_record_first":
            u.entangle_step(obs_b, _RECORD, _CORRELATION)
            mine = u.observe(alice, obs_a, rng)
        else:
            mine = u.observe(alice, obs_a, rng)
            u.entangle_step(obs_b, _RECORD, _CORRELATION)
        reply = u.communicate(alice, obs_rec, rng)
        counts[(mine, reply)] = counts.get((mine, reply), 0) + 1
    return EprRun(order, n, seed, counts, epr_joint_distribution(order))


def epr_joint_distribution(order: str) -> dict[tuple[str, str], float]:
    """Analytic joint over (asker outcome, reply), by forced chain walks
    through the engine in the given order."""
    if order not in ORDERS:
        raise ConfigError(f"order must be one of {ORDERS}")
    base = tensor(singlet_state(), make_state([_RECORD], [(("ready",), 1.0)]))
    obs_a, obs_b, obs_rec = a_spin(), b_spin(), record_observable()
    joint: dict[tuple[str, str], float] = {}
    for mine in SPIN_LABELS:
        u = create_universe(base)
        alice = u.register_observer("alice")
        if order == "bob_record_first":
            u.entangle_step(obs_b, _RECORD, _CORRELATION)
            p_mine = u.branch_probabilities(alice, obs_a)[mine]
            force_observe(u, alice, obs_a, mine)
        else:
            p_mine = u.branch_probabilities(alice, obs_a)[mine]
            force_observe(u, alice, obs_a, mine)
            u.entangle_step(obs_b, _RECORD, _CORRELATION)
        reply_probs = u.branch_probabilities(alice, obs_rec)
        for reply in SPIN_LABELS:
            joint[(mine, reply)] = p_mine * reply_probs[reply]
    return joint


# --- the partially determining pair (CLI scenario id: eq9) ---------------

PAIR_FIRST_LABELS = ("X", "Y")
PAIR_SECOND_LABELS = ("a", "b")

_FIRST = Subsystem("first", PAIR_FIRST_LABELS)
_SECOND = Subsystem("second", PAIR_SECOND_LABELS)


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


def build_partial_pair_universe() -> Universe:
    return create_universe(partial_pair_state())


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


def partial_pair_joint_distribution() -> dict[tuple[str, str], float]:
    """Analytic joint over (first, second) outcomes via forced chain walks."""
    obs_f, obs_s = first_observable(), second_observable()
    joint: dict[tuple[str, str], float] = {}
    for x in PAIR_FIRST_LABELS:
        u = build_partial_pair_universe()
        o = u.register_observer("alice")
        p_first = u.branch_probabilities(o, obs_f)[x]
        if p_first <= 0.0:
            for y in PAIR_SECOND_LABELS:
                joint[(x, y)] = 0.0
            continue
        force_observe(u, o, obs_f, x)
        second_probs = u.branch_probabilities(o, obs_s)
        for y in PAIR_SECOND_LABELS:
            joint[(x, y)] = p_first * second_probs[y]
    return joint


def run_partial_pair(n: int, seed: int) -> PartialPairRun:
    """n sequential first-then-second measurements on fresh pairs."""
    if n < 1:
        raise ConfigError("need at least one run")
    base = partial_pair_state()
    obs_f, obs_s = first_observable(), second_observable()
    rng = RngStream(seed)
    counts: dict[tuple[str, str], int] = {
        (x, y): 0 for x in PAIR_FIRST_LABELS for y in PAIR_SECOND_LABELS
    }
    for _ in range(n):
        u = create_universe(base)
        o = u.register_observer("alice")
        x = u.observe(o, obs_f, rng)
        y = u.observe(o, obs_s, rng)
        counts[(x, y)] += 1
    return PartialPairRun(n, seed, counts, partial_pair_joint_distribution())
