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

Each story is one tuple of ``Schedule`` steps: clock advances, entangling
steps, and observations, the later ones dated back to the earlier time.
``Schedule.run`` plays it on a fresh universe with the seed's stream.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..analysis import Advance, Entangle, Observe, Schedule
from ..engine import Universe
from ..events import EventLedger, Proposition
from ..rng import RngStream
from ..states import Subsystem, label_observable, make_state
from .eraser import eraser_schedule

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
    state = make_state([spin, needle, watcher], [(("+", "ready", "ready"), 0.6), (("-", "ready", "ready"), 0.8)])
    spin_obs = label_observable(spin, name="spin")
    needle_obs = label_observable(needle, name="needle")
    steps = (
        # Sunday at eleven: apparatus interacts, the other party looks. For
        # the narrating observer these produce entanglement, not results.
        Advance(SUNDAY_ELEVEN),
        Entangle(spin_obs, needle, {"+": "up", "-": "down"}),
        Entangle(needle_obs, watcher, {"up": "saw_up", "down": "saw_down"}),
        # Monday at noon: she asks. Hearing the answer hangs her onto one
        # branch; the facts that branch dates to Sunday are then registered
        # with their Sunday happening time.
        Advance(MONDAY_NOON),
        Observe(label_observable(watcher, name="watcher_record")),
        Observe(needle_obs, SUNDAY_ELEVEN),
        Observe(spin_obs, SUNDAY_ELEVEN),
    )
    u, alice, (heard, needle_outcome, spin_outcome) = Schedule(state, steps).run(RngStream(seed))
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

    ``eraser_schedule``'s three steps with the clock advanced before each:
    the signal side is recorded early by the other party (an entangling
    step); the narrating observer measures her idler detector, then asks.
    Only upon asking does the early-dated record fact become determined.
    """
    asking = eraser_schedule(bs_present)
    record, detector, ask = asking.steps
    steps = (
        Advance(EARLY_SIGNAL_TIME),
        record,
        Advance(IDLER_TIME),
        detector,
        Advance(ASK_TIME),
        Observe(ask.obs, EARLY_SIGNAL_TIME),
    )
    u, alice, (det, reply) = Schedule(asking.initial, steps).run(RngStream(seed))

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
    """A root-only universe: no observer, no observations, empty trace."""
    return Universe(make_state([Subsystem("system", ("0", "1"))], [(("0",), 1.0)]))
