"""Seeded engine outputs pinned by digest.

A change meant to make the engine faster must leave every seeded output as
it was, byte for byte. These digests pin outputs that run only the engine,
the state algebra and the scalar random stream: sampled counts and exact
joints of the EPR and partial-pair scenarios, the needle narrative's trace
and ledger, a seeded sweep of ledger truth values, and a seeded history of
label and degenerate observations with its trace and ledgers. Eraser outputs are
left out, since numpy's transcendental kernels may round differently on
another CPU. A digest that no longer matches means the change altered what
a seed produces; find out why before pinning a new value.
"""
import hashlib
import itertools
import json

import pytest

from hangon import Observable, Proposition, Subsystem, Universe, label_observable, make_state
from hangon.rng import RngStream
from hangon.scenarios import epr
from hangon.scenarios.narrative import run_needle_narrative


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _table(table: dict) -> str:
    """Keys in insertion order; floats by ``float.hex``, integers as they are."""
    return json.dumps([[list(k), v.hex() if isinstance(v, float) else v] for k, v in table.items()])


def _run_text(run) -> str:
    return _table(run.counts) + "\n" + _table(run.analytic)


# The two EPR orders share a digest: at one seed each trial makes the same
# two draws, and the order changes neither the joint nor which class a draw
# picks, so the counts and the exact joints agree.
PINNED = {
    "epr-alice_first": "612cf1b3a693177498def3200977bc10b2a260248b26a277c278dde98de54e25",
    "epr-bob_record_first": "612cf1b3a693177498def3200977bc10b2a260248b26a277c278dde98de54e25",
    "partial_pair": "47bac1a332bc9edb532feeb7acb27ef99c2cbe9d65029eeb1ccc21592c06b8ab",
    "needle-trace": "f6848c8716331e2e5b7889feff87b82bf84fcf3d15d5993ad393a7d4e7170bd3",
    "needle-ledger": "88a169e8036d47820e6d6b059ba243cdde84a942bb896256e879ee52059e8ee2",
    "truth-sweep": "a61c37b0bf8bcf2db36c42fe6baf3f220fecb8d6bae91f33ef3301701ca2762f",
    "history": "08f59b608ac0351ffaf860fe977fd9b91fe10098fd7500ecc4314c91f2fdd1ef",
}


def _truth_sweep(seed: int) -> str:
    """Two observers make 300 seeded label observations on a random
    3-subsystem state, some dated in the past and some repeated at once;
    then each ledger answers for every slot either ledger recorded, every
    label and every query time from 0 to the clock + 1, one line per
    (observer, slot, label). Label observables only: a degenerate class can
    still make a slot's truth revert (ROADMAP item 3)."""
    rng = RngStream(seed)
    subs = [Subsystem(f"s{i}", ("l0", "l1", "l2")) for i in range(3)]
    keys = itertools.product(*(s.labels for s in subs))
    terms = [(k, complex(rng.random() - 0.5, rng.random() - 0.5)) for k in keys if rng.random() < 0.6]
    u = Universe(make_state(subs, terms))
    observers = [u.register_observer("o0"), u.register_observer("o1")]
    pool = [label_observable(s) for s in subs]
    draws = rng.derive(0)
    n = 0
    while n < 300:
        o = observers[rng.random() < 0.5]
        obs = pool[int(rng.random() * 3)]
        t_happened = int(rng.random() * (u.clock + 1)) if rng.random() < 0.3 else None
        for _ in range(1 + (rng.random() < 0.3)):
            u.observe(o, obs, draws, t_happened)
            n += 1
    recorded = [r.proposition for o in observers for r in o.ledger.records]
    slots = sorted({(p.subsystem, p.t_happened) for p in recorded})
    times = range(u.clock + 2)
    return "\n".join(
        " ".join(o.ledger.truth_value(Proposition(sub, label, t_happened), t).value for t in times)
        for o in observers
        for sub, t_happened in slots
        for label in ("l0", "l1", "l2")
    )


def _history(seed: int) -> str:
    """Two observers make 400 seeded observations on a random 4- or
    5-subsystem state, with label and degenerate observables; about 30% are
    dated in the past and about 10% repeated at once. The text is the trace
    and both ledgers. No truth value is read: a degenerate class can still
    make a slot's truth revert (ROADMAP item 3)."""
    rng = RngStream(seed)
    labels = ("l0", "l1", "l2", "l3")
    subs = [Subsystem(f"s{i}", labels[: 2 + int(rng.random() * 3)]) for i in range(4 + (rng.random() < 0.5))]
    keys = itertools.product(*(s.labels for s in subs))
    terms = [(k, complex(rng.random() - 0.5, rng.random() - 0.5)) for k in keys if rng.random() < 0.5]
    u = Universe(make_state(subs, terms))
    observers = [u.register_observer("o0"), u.register_observer("o1")]
    pool = [label_observable(s) for s in subs]
    pool += [Observable(s, {"low": s.labels[:1], "high": s.labels[1:]}, name=f"{s.name}_deg") for s in subs]
    pool += [Observable(s, {"all": s.labels}, name=f"{s.name}_all") for s in subs[:1]]
    draws = rng.derive(0)
    n = 0
    while n < 400:
        o = observers[rng.random() < 0.5]
        obs = pool[int(rng.random() * len(pool))]
        t_happened = int(rng.random() * (u.clock + 1)) if rng.random() < 0.3 else None
        for _ in range(1 + (rng.random() < 0.1)):
            u.observe(o, obs, draws, t_happened)
            n += 1
    return "\n".join([u.trace_json()] + [o.ledger.to_json_lines() for o in observers])


def _output(name: str) -> str:
    if name.startswith("epr-"):
        return _run_text(epr.run_epr(name[len("epr-"):], 4000, 3))
    if name == "partial_pair":
        return _run_text(epr.run_partial_pair(4000, 3))
    if name == "truth-sweep":
        return _truth_sweep(2727)
    if name == "history":
        return _history(2828)
    story = run_needle_narrative(5)
    return story.universe.trace_json() if name == "needle-trace" else story.ledger.to_json_lines()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_output_is_unchanged(name):
    assert _digest(_output(name)) == PINNED[name]
