"""Scripted past-event narratives driving the ledger.

The needle story: an apparatus measures a spin on Sunday at eleven and a
second party looks at it right then, but for the narrating observer both are
mere entangling steps. Only when she talks to that party on Monday at noon
does a result exist for her, and the facts dated Sunday ("the needle was up
at eleven") acquire a truth value: Indefinite at Monday eleven-thirty, True
from Monday noon on.

The eraser variant plays the same game with the four-detector state: the
signal photon's record is undetermined for the observer who measured the
idler until she asks for it.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..engine import Universe, create_universe
from ..events import EventLedger, Proposition
from ..rng import RngStream
from ..states import Subsystem, label_observable, make_state, tensor
from .eraser import build_eraser_universe, detector_observable, path_observable

SUNDAY_ELEVEN = 10
MONDAY_NOON = 30


@dataclass(frozen=True)
class NeedleNarrative:
    """Everything the ledger tests need: the ledger, the timeline, and which
    branch the narrative landed on."""

    universe: Universe
    ledger: EventLedger
    heard: str
    needle_outcome: str
    spin_outcome: str
    t_happened: int
    t_asked: int
    t_complete: int

    def needle_proposition(self) -> Proposition:
        return Proposition("needle", self.needle_outcome, self.t_happened)


def run_needle_narrative(seed: int) -> NeedleNarrative:
    """The Sunday/Monday script over the spin state 0.6|+> + 0.8|->."""
    spin = Subsystem("spin", ("+", "-"))
    needle = Subsystem("needle", ("ready", "up", "down"))
    watcher = Subsystem("watcher", ("ready", "saw_up", "saw_down"))
    state = make_state([spin], [(("+",), 0.6), (("-",), 0.8)])
    state = tensor(state, make_state([needle], [(("ready",), 1.0)]))
    state = tensor(state, make_state([watcher], [(("ready",), 1.0)]))
    u = create_universe(state)
    alice = u.register_observer("alice")
    rng = RngStream(seed)

    spin_obs = label_observable(spin, name="spin")
    needle_obs = label_observable(needle, name="needle")
    watcher_obs = label_observable(watcher, name="watcher_record")

    # Sunday at eleven: apparatus interacts, the other party looks. For the
    # narrating observer these produce entanglement, not results.
    u.advance_clock(SUNDAY_ELEVEN)
    u.entangle_step(spin_obs, needle, {"+": "up", "-": "down"})
    u.entangle_step(needle_obs, watcher, {"up": "saw_up", "down": "saw_down"})

    # Monday at noon: she asks. Hearing the answer hangs her onto one branch;
    # the facts that branch dates to Sunday are then registered with their
    # Sunday happening time.
    u.advance_clock(MONDAY_NOON)
    heard = u.communicate(alice, watcher_obs, rng)
    needle_outcome = u.observe(alice, needle_obs, rng, t_happened=SUNDAY_ELEVEN)
    spin_outcome = u.observe(alice, spin_obs, rng, t_happened=SUNDAY_ELEVEN)
    assert heard == ("saw_up" if needle_outcome == "up" else "saw_down")
    assert spin_outcome == ("+" if needle_outcome == "up" else "-")

    return NeedleNarrative(
        universe=u,
        ledger=alice.ledger,
        heard=heard,
        needle_outcome=needle_outcome,
        spin_outcome=spin_outcome,
        t_happened=SUNDAY_ELEVEN,
        t_asked=MONDAY_NOON,
        t_complete=u.clock,
    )


EARLY_SIGNAL_TIME = 0
IDLER_TIME = 10
ASK_TIME = 20


@dataclass(frozen=True)
class EraserTrace:
    universe: Universe
    ledger: EventLedger
    detector_outcome: str
    reply: str
    t_signal: int
    t_detector: int
    t_asked: int

    def record_proposition(self) -> Proposition:
        return Proposition("signal_record", self.reply, self.t_signal)


def run_eraser_trace(seed: int, bs_present: bool = True) -> EraserTrace:
    """Idler-first eraser narrative over the discrete state.

    The signal side is recorded early by the other party (an entangling
    step); the narrating observer measures her idler detector, then asks.
    Only upon asking does the early-dated record fact become determined.
    """
    u = build_eraser_universe(bs_present, record=True)
    alice = u.register_observer("alice")
    rng = RngStream(seed)
    record = u.subsystem("signal_record")
    record_obs = label_observable(record, name="signal_record")

    u.advance_clock(EARLY_SIGNAL_TIME)
    u.entangle_step(path_observable(), record, {"U": "U", "L": "L"})

    u.advance_clock(IDLER_TIME)
    det = u.observe(alice, detector_observable(), rng)

    u.advance_clock(ASK_TIME)
    reply = u.communicate(alice, record_obs, rng, t_happened=EARLY_SIGNAL_TIME)

    return EraserTrace(
        universe=u,
        ledger=alice.ledger,
        detector_outcome=det,
        reply=reply,
        t_signal=EARLY_SIGNAL_TIME,
        t_detector=IDLER_TIME,
        t_asked=ASK_TIME,
    )


def run_empty_trace() -> Universe:
    """A root-only universe: no observations, empty trace."""
    sub = Subsystem("system", ("0", "1"))
    u = create_universe(make_state([sub], [(("0",), 1.0)]))
    u.register_observer("alice")
    return u
