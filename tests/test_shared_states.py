"""Shared scenario states carry nothing from one universe to the next.

``singlet_state``, ``eraser_state`` and the records' ready states are built
once per process and shared by every universe the scenario builders make.
A trial on such a universe must run as it would on a state built afresh,
however many trials ran on the shared factors before it.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from hangon import label_observable, tensor
from hangon.engine import Universe
from hangon.rng import RngStream
from hangon.scenarios import epr, eraser

# The four kinds of asking trial: the EPR record entangled before or after
# the asker's own measurement, and the eraser with the beam splitter in or out.
KINDS = ("epr-record-first", "epr-asker-first", "eraser-bs", "eraser-no-bs")


def build(kind):
    if kind.startswith("epr"):
        return epr.build_epr_universe(with_record=True)
    return eraser.build_eraser_universe(kind == "eraser-bs", record=True)


def build_fresh(kind):
    """The same universe over a state built afresh from the uncached builders."""
    if kind.startswith("epr"):
        return Universe(tensor(epr.singlet_state.__wrapped__(), epr._ready_record.__wrapped__()))
    bs = kind == "eraser-bs"
    return Universe(tensor(eraser._eraser_state.__wrapped__(bs), eraser._ready_record.__wrapped__()))


def trial(kind, u, seed):
    """Entangle, observe and ask, as one asking trial; returns what it left."""
    stream = RngStream(seed)
    alice = u.register_observer("alice")
    if kind.startswith("epr"):
        record = u.subsystem("bob_record")
        entangle = lambda: u.entangle_step(epr.b_spin(), record, {"+": "+", "-": "-"})  # noqa: E731
        if kind == "epr-record-first":
            entangle()
        mine = u.observe(alice, epr.a_spin(), stream)
        if kind == "epr-asker-first":
            entangle()
    else:
        record = u.subsystem("signal_record")
        u.entangle_step(eraser.path_observable(), record, {"U": "U", "L": "L"})
        mine = u.observe(alice, eraser.detector_observable(), stream)
    reply = u.communicate(alice, label_observable(record, name=record.name), stream)
    trace = [(e.observer, e.clock, e.observable, e.outcome, e.probability.hex()) for e in u.trace]
    return (mine, reply), trace, alice.ledger.records, u.clock


def shared_factors():
    return {
        "singlet": epr.singlet_state(),
        "bob_record": epr._ready_record(),
        "eraser-bs": eraser.eraser_state(True),
        "eraser-no-bs": eraser.eraser_state(False),
        "signal_record": eraser._ready_record(),
    }


def hex_terms(state):
    return [(k, v.real.hex(), v.imag.hex()) for k, v in state.terms.items()]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
def test_a_trial_on_shared_factors_equals_one_on_fresh_ones(kind, seed):
    factors = shared_factors()
    before = {name: hex_terms(s) for name, s in factors.items()}
    first = trial(kind, build(kind), seed)
    again = trial(kind, build(kind), seed)
    fresh = trial(kind, build_fresh(kind), seed)
    assert first == again == fresh
    after = shared_factors()
    assert all(after[name] is s for name, s in factors.items())
    assert {name: hex_terms(s) for name, s in after.items()} == before
