"""Hang-on engine: universes, observation, communication, branch trees."""
import copy
import dataclasses
import itertools
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hangon import (
    AllOutcomesForbidden,
    DuplicateObserver,
    EmptyBranch,
    FixedStream,
    Observable,
    PointerNotReady,
    Proposition,
    RngStream,
    Subsystem,
    Truth,
    UnknownOutcome,
    create_universe,
    label_observable,
    make_state,
    outcome_probability,
    project,
    tensor,
)
from hangon import engine
from hangon.analysis import (
    born_joint_distribution,
    l1_distance,
    sequential_joint_distribution,
)
from hangon.engine import force_observe
from hangon.states import StateVector

INV_SQRT2 = 1.0 / math.sqrt(2.0)

A = Subsystem("A", ("+", "-"))
B = Subsystem("B", ("+", "-"))
BOB = Subsystem("bob", ("ready", "+", "-"))
A_SPIN = label_observable(A, name="A_spin")
B_SPIN = label_observable(B, name="B_spin")
BOB_RECORD = label_observable(BOB, name="bob_record")


def singlet_universe(with_bob=False):
    s = make_state([A, B], [(("+", "-"), INV_SQRT2), (("-", "+"), -INV_SQRT2)])
    if with_bob:
        s = tensor(s, make_state([BOB], [(("ready",), 1.0)]))
    return create_universe(s)


class TestUniverseBasics:
    def test_creation_structure(self):
        u = singlet_universe()
        assert u.clock == 0
        assert u.root.parent is None
        assert len(u.subsystems) == 2

    def test_single_term_universe_is_certain(self):
        u = create_universe(make_state([A], [(("+",), 1.0)]))
        o = u.register_observer("alice")
        assert u.branch_probabilities(o, A_SPIN) == {"+": 1.0, "-": 0.0}

    def test_branch_probabilities_hands_out_a_copy(self):
        # observe reads the cached weights in place; a caller's edits to the
        # returned dict must not reach them.
        u = singlet_universe()
        o = u.register_observer("alice")
        probs = u.branch_probabilities(o, A_SPIN)
        want = dict(probs)
        probs["+"], probs["-"] = 0.0, 1.0
        assert u.branch_probabilities(o, A_SPIN) == want
        assert u.observe(o, A_SPIN, FixedStream([0.25])) == "+"
        assert u.trace[-1].probability == want["+"]

    def test_register_two_observers(self):
        u = singlet_universe()
        alice = u.register_observer("alice")
        bob = u.register_observer("bob")
        assert alice.node is u.root and bob.node is u.root
        assert len(alice.ledger) == 0

    def test_duplicate_observer(self):
        u = singlet_universe()
        u.register_observer("alice")
        with pytest.raises(DuplicateObserver):
            u.register_observer("alice")

    def test_clock_cannot_go_backwards(self):
        u = singlet_universe()
        u.advance_clock(10)
        with pytest.raises(ValueError):
            u.advance_clock(5)

    def test_nan_state_is_refused(self):
        # abs(nan - 1.0) > NORM_TOL is False, so the check once let it in.
        nan_state = StateVector((A,), {("+",): complex(math.nan, 0.0)})
        with pytest.raises(ValueError, match="normalized"):
            engine.Universe(nan_state)

    def test_nan_weights_are_refused_before_the_draw(self, monkeypatch):
        # total <= tolerance is False for a NaN total, and observe then
        # failed on a bare assert after drawing. The NaN enters where the
        # engine weighs each class, so the split is built from it.
        u = singlet_universe()
        o = u.register_observer("alice")
        monkeypatch.setattr(engine, "outcome_probability", lambda state, obs, cls: math.nan)
        rng = RngStream(3)
        with pytest.raises(AllOutcomesForbidden):
            u.observe(o, A_SPIN, rng)
        assert not u.trace and not o.path_selectors() and len(o.ledger) == 0
        assert rng.random() == RngStream(3).random()


class TestEntangleStep:
    def test_spin_apparatus_chain(self):
        # (0.6|+> + 0.8|->)|ready>|ready> -> needle entangled -> bob entangled.
        needle = Subsystem("needle", ("ready", "up", "down"))
        watcher = Subsystem("watcher", ("ready", "saw_up", "saw_down"))
        s = make_state([A], [(("+",), 0.6), (("-",), 0.8)])
        s = tensor(s, make_state([needle], [(("ready",), 1.0)]))
        s = tensor(s, make_state([watcher], [(("ready",), 1.0)]))
        u = create_universe(s)
        alice = u.register_observer("alice")

        u.entangle_step(A_SPIN, needle, {"+": "up", "-": "down"})
        assert abs(u.global_state.amplitude(("+", "up", "ready")) - 0.6) < 1e-15
        assert abs(u.global_state.amplitude(("-", "down", "ready")) - 0.8) < 1e-15

        needle_obs = label_observable(needle)
        u.entangle_step(needle_obs, watcher, {"up": "saw_up", "down": "saw_down"})
        assert abs(u.global_state.amplitude(("+", "up", "saw_up")) - 0.6) < 1e-15
        assert abs(u.global_state.amplitude(("-", "down", "saw_down")) - 0.8) < 1e-15

        # No definite result for anyone: no events, no path movement.
        assert len(alice.ledger) == 0
        assert alice.node is u.root
        assert u.clock == 2

    def test_eigenstate_stays_product(self):
        needle = Subsystem("needle", ("ready", "up", "down"))
        s = tensor(
            make_state([A], [(("+",), 1.0)]),
            make_state([needle], [(("ready",), 1.0)]),
        )
        u = create_universe(s)
        u.entangle_step(A_SPIN, needle, {"+": "up", "-": "down"})
        assert u.global_state.term_count() == 1


class TestObserve:
    def test_singlet_frequencies(self):
        u = singlet_universe()
        rng = RngStream(42)
        n = 4000
        plus = 0
        for i in range(n):
            o = u.register_observer(f"o{i}")
            if u.observe(o, A_SPIN, rng) == "+":
                plus += 1
        se = math.sqrt(0.25 / n)
        assert abs(plus / n - 0.5) < 3 * se

    def test_partially_determining_frequencies(self):
        sa = Subsystem("first", ("X", "Y"))
        sb = Subsystem("second", ("a", "b"))
        s = make_state(
            [sa, sb], [(("X", "a"), 1.0), (("X", "b"), 1.0), (("Y", "a"), 1.0)]
        )
        u = create_universe(s)
        rng = RngStream(1)
        n = 6000
        x_count = 0
        for i in range(n):
            o = u.register_observer(f"o{i}")
            if u.observe(o, label_observable(sa), rng) == "X":
                x_count += 1
        se = math.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(x_count / n - 2 / 3) < 3 * se

    def test_repeat_measurement_is_certain(self):
        rng = RngStream(7)
        for i in range(50):
            u = singlet_universe()
            o = u.register_observer("alice")
            first = u.observe(o, A_SPIN, rng)
            again = u.observe(o, A_SPIN, rng)
            assert again == first
            assert u.branch_probabilities(o, A_SPIN)[first] == 1.0

    def test_global_state_untouched_by_observation(self):
        u = singlet_universe(with_bob=True)
        u.entangle_step(B_SPIN, BOB, {"+": "+", "-": "-"})
        before = u.global_state
        rng = RngStream(3)
        o = u.register_observer("alice")
        u.observe(o, A_SPIN, rng)
        u.communicate(o, BOB_RECORD, rng)
        assert u.global_state is before  # not merely equal: the same value

    def test_path_is_monotone_chain(self):
        u = singlet_universe()
        o = u.register_observer("alice")
        rng = RngStream(11)
        nodes = [o.node]
        u.observe(o, A_SPIN, rng)
        nodes.append(o.node)
        u.observe(o, B_SPIN, rng)
        nodes.append(o.node)
        assert nodes[1].parent is nodes[0]
        assert nodes[2].parent is nodes[1]
        assert [n.depth for n in nodes] == [0, 1, 2]

    def test_event_recorded_with_times(self):
        u = singlet_universe()
        o = u.register_observer("alice")
        u.advance_clock(30)
        u.observe(o, A_SPIN, RngStream(0), t_happened=10)
        rec = o.ledger.records[0]
        assert rec.t_determined == 30
        assert rec.proposition.t_happened == 10
        assert rec.proposition.subsystem == "A"

    def test_records_are_immutable(self):
        # The branch node, trace entry, ledger record and proposition one
        # observe writes keep their fields, values and order, and refuse
        # every write.
        u = singlet_universe()
        o = u.register_observer("alice")
        u.advance_clock(4)
        p_plus = outcome_probability(u.global_state, A_SPIN, "+")
        u.observe(o, A_SPIN, FixedStream([0.25]), t_happened=2)
        rec = o.ledger.records[0]
        expected = [
            (o.node, {"parent": u.root, "selector": (A_SPIN, "+"), "depth": 1}),
            (
                u.trace[0],
                {"observer": "alice", "clock": 4, "observable": "A_spin",
                 "outcome": "+", "probability": p_plus},
            ),
            (rec, {"proposition": rec.proposition, "t_determined": 4, "observer": "alice"}),
            (rec.proposition, {"subsystem": "A", "outcome": "+", "t_happened": 2}),
        ]
        for record, fields in expected:
            if dataclasses.is_dataclass(record):
                names = tuple(f.name for f in dataclasses.fields(record))
            else:
                names = type(record)._fields
            assert names == tuple(fields)
            for name, value in fields.items():
                assert getattr(record, name) == value
                with pytest.raises(AttributeError):
                    setattr(record, name, value)

    def test_determinism_same_seed(self):
        def run(seed):
            u = singlet_universe()
            rng = RngStream(seed)
            out = []
            for i in range(30):
                o = u.register_observer(f"o{i}")
                out.append(u.observe(o, A_SPIN, rng))
            return out

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestConditionalState:
    def test_fresh_observer_sees_global(self):
        u = singlet_universe()
        o = u.register_observer("alice")
        assert u.conditional_state(o) == u.global_state

    def test_after_plus_branch(self):
        u = singlet_universe()
        o = u.register_observer("alice")
        force_observe(u, o, A_SPIN, "+")
        cs = u.conditional_state(o)
        assert cs.term_count() == 1
        assert abs(abs(cs.amplitude(("+", "-"))) - 1.0) < 1e-12

    def test_partially_determined_branch_keeps_superposition(self):
        sa = Subsystem("first", ("X", "Y"))
        sb = Subsystem("second", ("a", "b"))
        s = make_state(
            [sa, sb], [(("X", "a"), 1.0), (("X", "b"), 1.0), (("Y", "a"), 1.0)]
        )
        u = create_universe(s)
        o = u.register_observer("alice")
        force_observe(u, o, label_observable(sa), "X")
        cs = u.conditional_state(o)
        assert abs(cs.amplitude(("X", "a")) - INV_SQRT2) < 1e-12
        assert abs(cs.amplitude(("X", "b")) - INV_SQRT2) < 1e-12
        probs = u.branch_probabilities(o, label_observable(sb))
        assert abs(probs["a"] - 0.5) < 1e-12 and abs(probs["b"] - 0.5) < 1e-12


class TestCommunicate:
    def test_reply_matches_askers_branch(self):
        # After the asker saw "+", the record can only answer "-".
        for seed in range(40):
            u = singlet_universe(with_bob=True)
            u.entangle_step(B_SPIN, BOB, {"+": "+", "-": "-"})
            o = u.register_observer("alice")
            rng = RngStream(seed)
            mine = u.observe(o, A_SPIN, rng)
            reply = u.communicate(o, BOB_RECORD, rng)
            assert reply == ("-" if mine == "+" else "+")

    def test_ask_before_measuring_then_agree(self):
        # Asking first: reply is 50/50, and the asker's own later measurement
        # of her particle always agrees with it.
        u0 = singlet_universe(with_bob=True)
        for seed in range(40):
            u = singlet_universe(with_bob=True)
            u.entangle_step(B_SPIN, BOB, {"+": "+", "-": "-"})
            o = u.register_observer("alice")
            probs = u.branch_probabilities(o, BOB_RECORD)
            assert abs(probs["+"] - 0.5) < 1e-12
            assert abs(probs["-"] - 0.5) < 1e-12
            assert probs["ready"] == 0.0
            rng = RngStream(seed)
            reply = u.communicate(o, BOB_RECORD, rng)
            mine = u.observe(o, A_SPIN, rng)
            assert mine == ("-" if reply == "+" else "+")
        assert u0.clock == 0

    def test_askee_still_ready(self):
        # No entangling step ran: the record subsystem answers "ready".
        u = singlet_universe(with_bob=True)
        o = u.register_observer("alice")
        assert u.communicate(o, BOB_RECORD, RngStream(0)) == "ready"


def _snapshot(u, observers):
    """Everything an engine step may change, compared with ``==``."""
    return (
        u.global_state,
        u.clock,
        u.trace,
        [(o.path_selectors(), o.ledger.records) for o in observers],
    )


class TestRefusedSteps:
    def test_fact_dated_after_its_determination_is_refused(self):
        u = singlet_universe(with_bob=True)
        u.entangle_step(B_SPIN, BOB, {"+": "+", "-": "-"})
        o = u.register_observer("alice")
        rng = RngStream(3)
        u.observe(o, A_SPIN, rng)
        before = _snapshot(u, [o])
        state = u.global_state
        reference = RngStream(3)
        reference.random()
        for ask, obs in ((u.observe, B_SPIN), (u.communicate, BOB_RECORD)):
            for t_happened in (u.clock + 1, 10**6):
                with pytest.raises(ValueError, match="t_happened"):
                    ask(o, obs, rng, t_happened=t_happened)
        assert _snapshot(u, [o]) == before
        assert u.global_state is state
        # No draw was consumed: the stream is where one observation left it.
        assert rng.random() == reference.random()
        # A fact dated at the moment of its determination is accepted.
        t = u.clock
        reply = u.communicate(o, BOB_RECORD, rng, t_happened=t)
        rec = o.ledger.records[-1]
        assert rec.t_determined == rec.proposition.t_happened == t
        assert reply == rec.proposition.outcome

    def test_times_that_are_not_integers_are_refused(self):
        # Before the check, advance_clock(7.9) set the clock to 7 and a fact
        # dated 2.9 was recorded as happening at 2. Before bools were refused,
        # advance_clock(True) set the clock to 1 and a fact dated True was
        # recorded as happening at 1.
        u = singlet_universe(with_bob=True)
        u.entangle_step(B_SPIN, BOB, {"+": "+", "-": "-"})
        o = u.register_observer("alice")
        rng = RngStream(3)
        u.advance_clock(4)
        u.observe(o, A_SPIN, rng)
        before = _snapshot(u, [o])
        reference = RngStream(3)
        reference.random()
        for bad in (7.9, 3.0, "3", float("nan"), True, False):
            with pytest.raises(TypeError):
                u.advance_clock(bad)
            for ask, obs in ((u.observe, B_SPIN), (u.communicate, BOB_RECORD)):
                with pytest.raises(TypeError):
                    ask(o, obs, rng, t_happened=bad)
            with pytest.raises(TypeError):
                o.ledger.record(Proposition("A", "+", 1), bad)
        assert _snapshot(u, [o]) == before
        # No draw was consumed: the stream is where one observation left it.
        assert rng.random() == reference.random()
        # Numpy integers are integers, and they are stored as Python ints.
        u.advance_clock(np.int64(8))
        u.communicate(o, BOB_RECORD, rng, t_happened=np.int32(2))
        rec = o.ledger.records[-1]
        assert u.clock == 9 and type(rec.t_determined) is int and rec.t_determined == 8
        assert type(rec.proposition.t_happened) is int and rec.proposition.t_happened == 2

    def test_refused_forced_steps_change_nothing(self):
        u = singlet_universe(with_bob=True)
        u.entangle_step(B_SPIN, BOB, {"+": "+", "-": "-"})
        o = u.register_observer("alice")
        force_observe(u, o, A_SPIN, "+")
        before = _snapshot(u, [o])
        state = u.global_state
        # The singlet leaves B, and so bob's record, at "-" in this branch.
        refusals = [
            (UnknownOutcome, B_SPIN, "0", None),
            (UnknownOutcome, BOB_RECORD, "bogus", None),
            (EmptyBranch, B_SPIN, "+", None),
            (EmptyBranch, BOB_RECORD, "ready", None),
            (ValueError, B_SPIN, "-", u.clock + 1),
            (ValueError, BOB_RECORD, "-", 10**6),
            (TypeError, B_SPIN, "-", True),
            (TypeError, BOB_RECORD, "-", False),
        ]
        for error, obs, outcome, t_happened in refusals:
            with pytest.raises(error):
                force_observe(u, o, obs, outcome, t_happened=t_happened)
        assert _snapshot(u, [o]) == before
        assert u.global_state is state
        t = u.clock
        assert force_observe(u, o, BOB_RECORD, "-", t_happened=t) == pytest.approx(1.0, abs=1e-12)
        rec = o.ledger.records[-1]
        assert rec.t_determined == rec.proposition.t_happened == t
        assert rec.proposition.outcome == "-" and u.clock == t + 1

    def test_pointer_an_observer_has_read_cannot_fire(self):
        # Before the guard, the firing succeeded and every later query of the
        # asker raised EmptyBranch: no term was left at her "ready" selector.
        u = singlet_universe(with_bob=True)
        asker = u.register_observer("alice")
        other = u.register_observer("carol")
        assert u.communicate(asker, BOB_RECORD, RngStream(0)) == "ready"
        before = _snapshot(u, [asker, other])
        state = u.global_state
        with pytest.raises(PointerNotReady, match="bob"):
            u.entangle_step(B_SPIN, BOB, {"+": "+", "-": "-"})
        assert _snapshot(u, [asker, other]) == before
        assert u.global_state is state
        heard = u.branch_probabilities(asker, BOB_RECORD)
        assert heard == pytest.approx({"ready": 1.0, "+": 0.0, "-": 0.0}, abs=1e-12)
        probs = u.branch_probabilities(asker, A_SPIN)
        assert probs == pytest.approx({"+": 0.5, "-": 0.5}, abs=1e-12)


class TestForcedObservation:
    def test_force_returns_probability_and_extends(self):
        u = singlet_universe()
        o = u.register_observer("alice")
        p = force_observe(u, o, A_SPIN, "-")
        assert abs(p - 0.5) < 1e-12
        assert o.path_selectors()[-1][1] == "-"

    def test_force_unsupported_outcome_rejected(self):
        from hangon import EmptyBranch

        u = create_universe(make_state([A], [(("+",), 1.0)]))
        o = u.register_observer("alice")
        with pytest.raises(EmptyBranch):
            force_observe(u, o, A_SPIN, "-")


class TestJointDistributions:
    def test_chain_rule_matches_born_oracle(self):
        rng = RngStream(2024)
        for trial in range(40):
            n_subs = 2 + int(rng.random() * 3)  # 2..4
            subs = []
            for i in range(n_subs):
                n_labels = 2 + int(rng.random() * 2)  # 2..3
                subs.append(Subsystem(f"s{i}", tuple(f"l{j}" for j in range(n_labels))))

            def all_keys(sets):
                if not sets:
                    return [()]
                rest = all_keys(sets[1:])
                return [(l,) + r for l in sets[0] for r in rest]

            terms = []
            for key in all_keys([s.labels for s in subs]):
                re, im = rng.random() * 2 - 1, rng.random() * 2 - 1
                terms.append((key, complex(re, im)))
            state = make_state(subs, terms)
            observables = [label_observable(s) for s in subs]
            chain = sequential_joint_distribution(state, observables)
            oracle = born_joint_distribution(state, observables)
            assert l1_distance(chain, oracle) <= 1e-10

    def test_order_independence_on_disjoint_subsystems(self):
        sa = Subsystem("first", ("X", "Y"))
        sb = Subsystem("second", ("a", "b"))
        s = make_state(
            [sa, sb], [(("X", "a"), 1.0), (("X", "b"), 1.0), (("Y", "a"), 1.0)]
        )
        oa, ob = label_observable(sa), label_observable(sb)
        ab = sequential_joint_distribution(s, [oa, ob])
        ba = sequential_joint_distribution(s, [ob, oa])
        for (x, y), p in ab.items():
            assert abs(ba[(y, x)] - p) <= 1e-12


class TestTrace:
    def test_trace_lines(self):
        u = singlet_universe()
        o = u.register_observer("alice")
        force_observe(u, o, A_SPIN, "+")
        lines = u.trace_json().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc == {
            "observer": "alice",
            "clock": 0,
            "observable": "A_spin",
            "outcome": "+",
            "probability": doc["probability"],
        }
        assert abs(doc["probability"] - 0.5) < 1e-12

    def test_entangle_steps_leave_no_trace(self):
        u = singlet_universe(with_bob=True)
        u.entangle_step(B_SPIN, BOB, {"+": "+", "-": "-"})
        assert u.trace_json() == ""


def _reference_conditional(u, o):
    """The conditional state re-projected from the root, without any cache."""
    state = u.global_state
    for obs, outcome in o.path_selectors():
        state = project(state, obs, outcome)
    return state.normalized()


def _label_tuples(subs):
    keys = [()]
    for sub in subs:
        keys = [k + (lab,) for k in keys for lab in sub.labels]
    return keys


def _observable(sub, degenerate):
    if degenerate and len(sub.labels) >= 3:
        classes = {"merged": sub.labels[:2]}
        classes.update({lab: (lab,) for lab in sub.labels[2:]})
        return Observable(sub, classes, name=f"{sub.name}_deg")
    return label_observable(sub)


N_POINTERS = 3


@st.composite
def _entangled_universes(draw):
    """A 2-4 subsystem random state tensored with ready pointers p0..p2."""
    subs = [
        Subsystem(f"s{i}", tuple(f"l{j}" for j in range(draw(st.integers(2, 3)))))
        for i in range(draw(st.integers(2, 4)))
    ]
    keys = _label_tuples(subs)
    part = st.integers(-4, 4).map(lambda x: x / 3.0)
    amps = draw(st.lists(st.tuples(part, part), min_size=len(keys), max_size=len(keys)))
    terms = [(k, complex(re, im)) for k, (re, im) in zip(keys, amps) if re or im]
    if not terms:
        terms = [(keys[0], 1.0)]
    state = make_state(subs, terms)
    pointers = [Subsystem(f"p{k}", ("ready", "r0", "r1", "r2")) for k in range(N_POINTERS)]
    for ptr in pointers:
        state = tensor(state, make_state([ptr], [(("ready",), 1.0)]))
    return create_universe(state), subs, pointers


@settings(max_examples=80, deadline=None)
@given(_entangled_universes(), st.data())
def test_conditional_state_equals_root_reprojection(setup, data):
    """The cached conditional state is the from-root re-projection, exactly,
    over schedules that interleave observation and entangling steps.
    Observables are built once and observations repeat, so selectors recur
    and a branch is asked again about selectors it has already kept whole."""
    u, subs, pointers = setup
    observers = [u.register_observer("a"), u.register_observer("b")]
    pool = {
        (sub.name, deg): _observable(sub, deg) for sub in subs + pointers for deg in (False, True)
    }
    fired = 0
    for _ in range(data.draw(st.integers(1, 14), label="steps")):
        kind = data.draw(
            st.sampled_from(["observe", "force", "probabilities", "entangle"]), label="kind"
        )
        o = data.draw(st.sampled_from(observers), label="observer")
        # Fired pointers may be observed too. A still-ready pointer may not:
        # firing it later would leave a "ready" selector without support.
        sub = data.draw(st.sampled_from(subs + pointers[:fired]), label="subsystem")
        obs = pool[sub.name, data.draw(st.booleans(), label="degenerate")]
        if kind == "observe":
            # Repeats hang a selector on a branch that may already keep it whole.
            for _ in range(data.draw(st.integers(1, 3), label="repeats")):
                draw = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="uniform")
                u.observe(o, obs, FixedStream([draw]))
        elif kind == "force":
            probs = u.branch_probabilities(o, obs)
            supported = [c for c, p in probs.items() if p > 0.0]
            force_observe(u, o, obs, data.draw(st.sampled_from(supported), label="outcome"))
        elif kind == "probabilities":
            u.branch_probabilities(o, obs)
        elif fired < N_POINTERS:
            system = pool[
                data.draw(st.sampled_from(subs), label="system").name,
                data.draw(st.booleans(), label="system_degenerate"),
            ]
            correlation = {c: f"r{j}" for j, c in enumerate(system.class_names)}
            u.entangle_step(system, pointers[fired], correlation)
            fired += 1
        for each in observers:
            got = u.conditional_state(each)
            want = _reference_conditional(u, each)
            assert got == want
            assert list(got.terms) == list(want.terms)


def test_projections_per_observation_stay_constant(monkeypatch):
    """A deep path costs about one projection per observation, not one per
    path step: counts calls, so it does not depend on the machine's speed."""
    calls = [0]
    real_project = engine.project

    def counting_project(*args):
        calls[0] += 1
        return real_project(*args)

    monkeypatch.setattr(engine, "project", counting_project)
    subs = [Subsystem(f"s{i}", ("l0", "l1", "l2")) for i in range(3)]
    terms = [(k, 1.0 + 0.1j * n) for n, k in enumerate(_label_tuples(subs))]
    u = create_universe(make_state(subs, terms))
    observables = [_observable(sub, deg) for sub in subs for deg in (False, True)]
    o = u.register_observer("alice")
    rng = RngStream(19)
    depth = 400
    for step in range(depth):
        u.observe(o, observables[step % len(observables)], rng)
    assert o.depth == depth
    # Re-projecting from the root each time would take depth * (depth - 1) / 2.
    assert calls[0] <= depth
    assert u.conditional_state(o) == _reference_conditional(u, o)


def _reference_probabilities(u, o, obs):
    """Class weights of the from-root re-projection, without any cache."""
    conditional = _reference_conditional(u, o)
    return {cls: outcome_probability(conditional, obs, cls) for cls in obs.class_names}


@settings(max_examples=80, deadline=None)
@given(_entangled_universes(), st.data())
def test_cached_answers_equal_root_reprojection(setup, data):
    """Cached conditional states and branch probabilities equal the from-root
    answers after every step, and a caller's edits to a returned dict never
    reach the next answer. Observables are built once, so repeated queries on
    an unchanged path are answered from the cache."""
    u, subs, pointers = setup
    observers = [u.register_observer("a"), u.register_observer("b")]
    pool = {
        (sub.name, deg): _observable(sub, deg) for sub in subs + pointers for deg in (False, True)
    }
    fired = 0
    for _ in range(data.draw(st.integers(1, 14), label="steps")):
        kind = data.draw(
            st.sampled_from(["observe", "force", "probabilities", "entangle"]), label="kind"
        )
        o = data.draw(st.sampled_from(observers), label="observer")
        # Only fired pointers are observed: a "ready" selector loses its
        # support once the pointer fires.
        sub = data.draw(st.sampled_from(subs + pointers[:fired]), label="subsystem")
        obs = pool[sub.name, data.draw(st.booleans(), label="degenerate")]
        if kind == "observe":
            # Repeats hang a selector on a branch that may already keep it whole.
            for _ in range(data.draw(st.integers(1, 3), label="repeats")):
                draw = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="uniform")
                u.observe(o, obs, FixedStream([draw]))
        elif kind == "force":
            probs = u.branch_probabilities(o, obs)
            supported = [c for c, p in probs.items() if p > 0.0]
            force_observe(u, o, obs, data.draw(st.sampled_from(supported), label="outcome"))
        elif kind == "probabilities":
            probs = u.branch_probabilities(o, obs)
            probs[obs.class_names[0]] = -1.0
            probs.pop(obs.class_names[-1])
            probs["bogus"] = 2.0
        elif fired < N_POINTERS:
            system = pool[
                data.draw(st.sampled_from(subs), label="system").name,
                data.draw(st.booleans(), label="system_degenerate"),
            ]
            correlation = {c: f"r{j}" for j, c in enumerate(system.class_names)}
            u.entangle_step(system, pointers[fired], correlation)
            fired += 1
        for each in observers:
            for _ in range(2):
                got = u.conditional_state(each)
                want = _reference_conditional(u, each)
                assert got == want
                assert list(got.terms) == list(want.terms)
                for key in ((sub.name, False), (sub.name, True)):
                    probs = u.branch_probabilities(each, pool[key])
                    assert probs == _reference_probabilities(u, each, pool[key])
                    assert list(probs) == list(pool[key].class_names)
                    probs.clear()


@settings(max_examples=80, deadline=None)
@given(_entangled_universes(), st.data())
def test_answer_table_answers_equal_root_reprojection(setup, data):
    """Universes that share one answer table, two observers each, answer
    every query with the from-root re-projection, exactly, whatever mix of
    observations and entangling steps each one has gone through. A replay
    step hangs a selector below a node that shares another node's branch,
    so a fixed fact recorded on a branch that did not keep it whole shows."""
    u, subs, pointers = setup
    table = engine._AnswerTable()
    universes = [engine.Universe(u.global_state, _answers=table) for _ in range(2)]
    observers = [(v, v.register_observer(name)) for v in universes for name in "ab"]
    pool = {
        (sub.name, deg): _observable(sub, deg) for sub in subs + pointers for deg in (False, True)
    }
    correlations = {key: {c: f"r{j}" for j, c in enumerate(obs.class_names)} for key, obs in pool.items()}
    fired = [0, 0]
    for _ in range(data.draw(st.integers(1, 16), label="steps")):
        k = data.draw(st.integers(0, 1), label="universe")
        v, o = observers[2 * k + data.draw(st.integers(0, 1), label="observer")]
        kind = data.draw(st.sampled_from(["observe", "force", "replay", "entangle"]), label="kind")
        # Only fired pointers are observed: a "ready" selector loses its
        # support once the pointer fires.
        sub = data.draw(st.sampled_from(subs + pointers[: fired[k]]), label="subsystem")
        obs = pool[sub.name, data.draw(st.booleans(), label="degenerate")]
        if kind == "observe":
            # Repeats hang a selector on a branch that may already keep it whole.
            for _ in range(data.draw(st.integers(1, 3), label="repeats")):
                draw = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="uniform")
                v.observe(o, obs, FixedStream([draw]))
        elif kind == "force":
            probs = v.branch_probabilities(o, obs)
            supported = [c for c, p in probs.items() if p > 0.0]
            force_observe(v, o, obs, data.draw(st.sampled_from(supported), label="outcome"))
        elif kind == "replay":
            # A new universe on the table walks this observer's path with one
            # selector repeated. The repeat's node shares the branch of the
            # node the observer hung the next selector below, so hanging that
            # selector here reads what that hang recorded on the branch.
            path = o.path_selectors()
            if path:
                i = data.draw(st.integers(0, len(path) - 1), label="repeated")
                w = engine.Universe(v.global_state, _answers=table)
                r = w.register_observer("replay")
                for selector in path[: i + 1] + path[i:]:
                    force_observe(w, r, *selector)
                    got = w.conditional_state(r)
                    want = _reference_conditional(w, r)
                    assert got == want
                    assert list(got.terms) == list(want.terms)
        elif fired[k] < N_POINTERS:
            key = (data.draw(st.sampled_from(subs), label="system").name, data.draw(st.booleans()))
            v.entangle_step(pool[key], pointers[fired[k]], correlations[key])
            fired[k] += 1
        for v, each in observers:
            got = v.conditional_state(each)
            want = _reference_conditional(v, each)
            assert got == want
            assert list(got.terms) == list(want.terms)
            for key in ((sub.name, False), (sub.name, True)):
                probs = v.branch_probabilities(each, pool[key])
                assert probs == _reference_probabilities(v, each, pool[key])
                probs.clear()


def _steer(u, o, obs, outcome, *, t_happened=None):
    """Force ``outcome`` by steering a draw, as ``force_observe`` once did:
    ``observe`` gets the uniform at the middle of the class's band."""
    probs = u.branch_probabilities(o, obs)
    p = probs[outcome]
    total = sum(probs.values())
    acc = 0.0
    for cls in obs.class_names:
        if cls == outcome:
            break
        if probs[cls] > 0.0:
            acc += probs[cls]
    assert u.observe(o, obs, FixedStream([(acc + p / 2.0) / total]), t_happened) == outcome
    return p


@pytest.mark.parametrize("table", [False, True], ids=["own-memo", "answer-table"])
@settings(max_examples=60, deadline=None)
@given(setup=_entangled_universes(), data=st.data())
def test_naming_the_class_equals_steering_a_draw(table, setup, data):
    """``force_observe`` names its class to ``observe``; steering a draw to
    the class instead leaves the same paths, trace (probabilities by
    ``float.hex``), ledgers and clock, for every supported class at every
    step of a random program. Each step runs on twin universes rebuilt from
    the program so far, one per route; with a table, each route has its
    own, shared by all its twins."""
    u, subs, pointers = setup
    pool = {
        (sub.name, deg): _observable(sub, deg) for sub in subs + pointers for deg in (False, True)
    }
    tables = [engine._AnswerTable() if table else None for _ in range(2)]
    routes = [force_observe, _steer]
    program = []

    def run(route, steps):
        v = engine.Universe(u.global_state, _answers=tables[route])
        observers = [v.register_observer(name) for name in "ab"]
        for step in steps:
            if step[0] == "entangle":
                v.entangle_step(*step[1:])
            else:
                _, k, obs, outcome, t_happened = step
                p = routes[route](v, observers[k], obs, outcome, t_happened=t_happened)
                assert p == v.trace[-1].probability
        return v, observers

    fired = 0
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        if fired < N_POINTERS and data.draw(st.booleans(), label="entangle"):
            system = pool[data.draw(st.sampled_from(subs), label="system").name, data.draw(st.booleans())]
            correlation = {c: f"r{j}" for j, c in enumerate(system.class_names)}
            program.append(("entangle", system, pointers[fired], correlation))
            fired += 1
            continue
        k = data.draw(st.integers(0, 1), label="observer")
        sub = data.draw(st.sampled_from(subs + pointers[:fired]), label="subsystem")
        obs = pool[sub.name, data.draw(st.booleans(), label="degenerate")]
        v, observers = run(0, program)
        when = data.draw(st.one_of(st.none(), st.integers(0, v.clock)), label="t_happened")
        supported = [c for c, p in v.branch_probabilities(observers[k], obs).items() if p > 0.0]
        for outcome in supported:
            step = ("observe", k, obs, outcome, when)
            (fv, forced), (sv, steered) = (run(route, program + [step]) for route in (0, 1))
            assert _snapshot(fv, forced) == _snapshot(sv, steered)
            assert [e.probability.hex() for e in fv.trace] == [e.probability.hex() for e in sv.trace]
        program.append(("observe", k, obs, data.draw(st.sampled_from(supported), label="outcome"), when))


def _cost_guard_state():
    """Three subsystems with some terms missing, so some prefixes have zero
    weight and the enumeration stops early on them."""
    subs = [
        Subsystem("s0", ("l0", "l1", "l2")),
        Subsystem("s1", ("l0", "l1", "l2")),
        Subsystem("s2", ("l0", "l1")),
    ]
    terms = [
        (k, complex(1.0 + 0.25 * n, 0.5 - 0.125 * n))
        for n, k in enumerate(_label_tuples(subs))
        if n % 5 != 2 and k[:2] != ("l2", "l1")
    ]
    return make_state(subs, terms), subs


@pytest.fixture
def weighings(monkeypatch):
    """Counts ``outcome_probability`` calls made by the engine."""
    calls = [0]
    real_outcome_probability = engine.outcome_probability

    def counting_outcome_probability(*args):
        calls[0] += 1
        return real_outcome_probability(*args)

    monkeypatch.setattr(engine, "outcome_probability", counting_outcome_probability)
    return calls


@pytest.fixture
def projections(monkeypatch):
    """Counts ``project`` calls made by the engine."""
    calls = [0]
    real_project = engine.project

    def counting_project(*args):
        calls[0] += 1
        return real_project(*args)

    monkeypatch.setattr(engine, "project", counting_project)
    return calls


@pytest.mark.parametrize("table", [False, True], ids=["own-memo", "answer-table"])
def test_observing_a_fixed_fact_weighs_nothing_again(weighings, projections, table):
    """Once the branch is one term, observing facts it already fixes drops
    no term: the new nodes keep the branch, its normalization and its class
    weights, so nothing is weighed again, and a selector the branch has
    kept whole once is not projected again; counts calls, so it does not
    depend on the machine's speed."""
    state, subs = _cost_guard_state()
    u = engine.Universe(state, _answers=engine._AnswerTable() if table else None)
    o = u.register_observer("alice")
    labels = [label_observable(sub) for sub in subs]
    for obs in labels:
        probs = u.branch_probabilities(o, obs)
        force_observe(u, o, obs, max(probs, key=probs.get))
    assert u.conditional_state(o).term_count() == 1
    for obs in labels:
        u.branch_probabilities(o, obs)
    fixed = u.conditional_state(o)
    weighings[0] = projections[0] = 0
    rng = RngStream(3)
    for step in range(50):
        u.observe(o, labels[step % len(labels)], rng)
        assert u.conditional_state(o) is fixed
    assert o.depth == len(labels) + 50
    assert weighings[0] == 0
    # One projection per distinct selector, the first time it is hung on.
    assert projections[0] <= len(labels)
    # A degenerate observable first asked here costs one call per class, once.
    coarse = _observable(subs[0], True)
    for _ in range(5):
        u.observe(o, coarse, rng)
        assert u.conditional_state(o) is fixed
    assert weighings[0] == len(coarse.class_names)
    assert projections[0] <= len(labels) + 1
    assert u.trace[-1].probability == 1.0


@pytest.mark.parametrize("table", [False, True], ids=["own-memo", "answer-table"])
def test_a_narrowed_branch_starts_with_its_fixed_facts(projections, table):
    """A projection that drops terms starts a branch that already knows the
    selector it went through and every fact its parent branch kept whole,
    so the first repeat of a narrowing observation, or of an older fact,
    projects nothing; counts calls, so it does not depend on the machine's
    speed."""
    state, subs = _cost_guard_state()
    u = engine.Universe(state, _answers=engine._AnswerTable() if table else None)
    o = u.register_observer("alice")
    first, second = label_observable(subs[0]), label_observable(subs[1])
    before = u.conditional_state(o)
    for obs in (first, second):
        probs = u.branch_probabilities(o, obs)
        outcome = max(probs, key=probs.get)
        force_observe(u, o, obs, outcome)
        wider, before = before, u.conditional_state(o)
        assert before.term_count() < wider.term_count()
        projections[0] = 0
        force_observe(u, o, obs, outcome)
        assert u.conditional_state(o) is before
        assert projections[0] == 0
    force_observe(u, o, first, o.path_selectors()[0][1])
    assert u.conditional_state(o) is before
    assert projections[0] == 0
    assert u.conditional_state(o) == _reference_conditional(u, o)


@pytest.mark.parametrize("table", [False, True], ids=["own-memo", "answer-table"])
def test_a_fixed_fact_hangs_on_inside_observe(monkeypatch, projections, table):
    """Observing again a fact the branch already keeps whole moves the
    observer's memo to the new node inside ``observe``: a repeat makes no
    ``conditional_state`` call and no projection, and the next query still
    equals the from-root re-projection. With a table, a second universe
    walks the same path through the entries the first one wrote. Counts
    calls, so it does not depend on the machine's speed."""
    queries = [0]
    real_conditional_state = engine.Universe.conditional_state

    def counting_conditional_state(self, observer):
        queries[0] += 1
        return real_conditional_state(self, observer)

    monkeypatch.setattr(engine.Universe, "conditional_state", counting_conditional_state)
    state, subs = _cost_guard_state()
    shared = engine._AnswerTable() if table else None
    labels = [label_observable(sub) for sub in subs[:2]]
    for seed in (5, 6) if table else (5,):
        u = engine.Universe(state, _answers=shared)
        o = u.register_observer("alice")
        for obs in labels:
            force_observe(u, o, obs, "l0")
        u.conditional_state(o)
        queries[0] = projections[0] = 0
        rng = RngStream(seed)
        for step in range(40):
            assert u.observe(o, labels[step % 2], rng) == "l0"
        assert queries[0] == 0
        assert projections[0] == 0
        assert u.conditional_state(o) == _reference_conditional(u, o)


def test_a_selector_that_dropped_terms_is_projected_below_a_shared_branch(projections):
    """Two universes share a table. The first hangs a selector that drops
    terms below a node; the second reaches a node sharing that node's
    branch through a repeat, then hangs the same selector: it must drop the
    same terms there, since only selectors a branch kept whole are skipped.
    The repeat's node shares the whole record, its branches below included,
    so the second universe finds the first one's narrowed branch there and
    projects nothing; counts calls, so it does not depend on the machine's
    speed."""
    s0, s1 = Subsystem("s0", ("l0", "l1")), Subsystem("s1", ("l0", "l1"))
    state = make_state([s0, s1], [(("l0", "l0"), 0.6), (("l0", "l1"), 0.8)])
    first, second = label_observable(s0), label_observable(s1)
    table = engine._AnswerTable()
    universes = [engine.Universe(state, _answers=table) for _ in range(2)]
    for v, walk in zip(universes, ([first, second], [first, first, second])):
        o = v.register_observer("alice")
        projections[0] = 0
        for obs in walk:
            force_observe(v, o, obs, "l0")
        got = v.conditional_state(o)
        made = projections[0]
        assert got == _reference_conditional(v, o)
        assert got.term_count() == 1
    assert made == 0


@pytest.mark.parametrize("table", [False, True], ids=["own-memo", "answer-table"])
def test_long_history_weights_equal_root_reprojection(table):
    """Two observers, 320 observations of label and degenerate observables,
    many of them repeats, with a pointer fired halfway: every traced
    probability is, bit for bit, the class weight of the from-root
    re-projection. With a table, a second universe with another seed
    shares it."""
    subs = [Subsystem("s0", ("l0", "l1", "l2")), Subsystem("s1", ("l0", "l1", "l2")), Subsystem("s2", ("l0", "l1"))]
    pointer = Subsystem("p", ("ready", "r0", "r1", "r2"))
    terms = [(k, complex(1.0 + 0.25 * n, 0.5 - 0.125 * n)) for n, k in enumerate(_label_tuples(subs)) if n % 4 != 1]
    state = tensor(make_state(subs, terms), make_state([pointer], [(("ready",), 1.0)]))
    system = label_observable(subs[0])
    correlation = {c: f"r{j}" for j, c in enumerate(system.class_names)}
    before = [_observable(sub, deg) for sub in subs for deg in (False, True)]
    after = before + [label_observable(pointer)]
    shared = engine._AnswerTable() if table else None
    for seed in (11, 12) if table else (11,):
        u = engine.Universe(state, _answers=shared)
        observers = [u.register_observer("a"), u.register_observer("b")]
        rng = RngStream(seed)
        for step in range(320):
            if step == 160:
                u.entangle_step(system, pointer, correlation)
            pool = before if step < 160 else after
            o = observers[0 if step % 3 else 1]
            obs = pool[(step * 7 // 3) % len(pool)]
            want = _reference_probabilities(u, o, obs)
            outcome = u.observe(o, obs, rng)
            assert u.trace[-1].probability.hex() == want[outcome].hex()
        assert len(u.trace) == 320 and min(o.depth for o in observers) > 100


def test_sequential_joint_asks_each_class_once_per_prefix(monkeypatch):
    """Every positive prefix of every combination costs one
    ``outcome_probability`` call per outcome class of the next observable,
    however often the enumeration and ``force_observe`` re-read it; counts
    calls, so it does not depend on the machine's speed."""
    calls = [0]
    real_outcome_probability = engine.outcome_probability

    def counting_outcome_probability(*args):
        calls[0] += 1
        return real_outcome_probability(*args)

    monkeypatch.setattr(engine, "outcome_probability", counting_outcome_probability)
    state, subs = _cost_guard_state()
    observables = [_observable(sub, deg) for sub, deg in zip(subs, (True, False, False))]
    bound = 0
    for combo in itertools.product(*(o.class_names for o in observables)):
        for j, obs in enumerate(observables):
            bound += len(obs.class_names)
            if born_joint_distribution(state, observables[: j + 1])[combo[: j + 1]] <= 0.0:
                break
    joint = sequential_joint_distribution(state, observables)
    assert 0 < calls[0] <= bound
    assert l1_distance(joint, born_joint_distribution(state, observables)) < 1e-12


def test_sequential_joint_asks_each_class_once_per_distinct_prefix(monkeypatch):
    """Combinations that share a positive prefix share its class weights:
    one ``outcome_probability`` call per outcome class of the next
    observable per *distinct* positive prefix, the empty prefix included."""
    calls = [0]
    real_outcome_probability = engine.outcome_probability

    def counting_outcome_probability(*args):
        calls[0] += 1
        return real_outcome_probability(*args)

    monkeypatch.setattr(engine, "outcome_probability", counting_outcome_probability)
    state, subs = _cost_guard_state()
    observables = [_observable(sub, deg) for sub, deg in zip(subs, (True, False, False))]
    prefixes = {
        combo[:j]
        for combo in itertools.product(*(o.class_names for o in observables))
        for j in range(len(observables))
        if born_joint_distribution(state, observables[:j])[combo[:j]] > 0.0
    }
    bound = sum(len(observables[len(prefix)].class_names) for prefix in prefixes)
    # 2 classes at the root, 3 after each of 2 first outcomes, 2 after each
    # of the 6 second prefixes less one without support.
    assert bound == 2 + 2 * 3 + 5 * 2
    joint = sequential_joint_distribution(state, observables)
    assert 0 < calls[0] <= bound
    assert l1_distance(joint, born_joint_distribution(state, observables)) < 1e-12


def test_sequential_joint_observes_once_per_positive_prefix(monkeypatch):
    """The enumeration forces every step of a combination, the last one
    included, until the first prefix without support."""
    calls = [0]
    real_observe = engine.Universe.observe

    def counting_observe(self, *args, **kwargs):
        calls[0] += 1
        return real_observe(self, *args, **kwargs)

    monkeypatch.setattr(engine.Universe, "observe", counting_observe)
    state, subs = _cost_guard_state()
    observables = [_observable(sub, deg) for sub, deg in zip(subs, (True, False, False))]
    positive_prefixes = 0
    for combo in itertools.product(*(o.class_names for o in observables)):
        for j in range(len(observables)):
            if born_joint_distribution(state, observables[: j + 1])[combo[: j + 1]] <= 0.0:
                break
            positive_prefixes += 1
    sequential_joint_distribution(state, observables)
    assert 0 < positive_prefixes < 3 * 3 * 3 * 2
    assert calls[0] == positive_prefixes


def _filtered_born_joint(state, observables):
    """Per-combination term filter: the reference for the one-pass tally."""
    indices = [state.subsystem_index(o.subsystem.name) for o in observables]
    joint = {}
    for combo in itertools.product(*(o.class_names for o in observables)):
        joint[combo] = math.fsum(
            a.real * a.real + a.imag * a.imag
            for labels, a in state.terms.items()
            if all(
                labels[i] in obs.outcome_classes[cls]
                for i, obs, cls in zip(indices, observables, combo)
            )
        )
    return joint


@settings(max_examples=80, deadline=None)
@given(_entangled_universes(), st.data())
def test_born_joint_equals_per_combination_filter(setup, data):
    """The one-pass Born joint equals filtering the terms once per outcome
    combination, with degenerate observables and repeated subsystems."""
    u, subs, _ = setup
    picks = data.draw(
        st.lists(st.tuples(st.sampled_from(subs), st.booleans()), min_size=1, max_size=4),
        label="observables",
    )
    observables = [_observable(sub, deg) for sub, deg in picks]
    got = born_joint_distribution(u.global_state, observables)
    want = _filtered_born_joint(u.global_state, observables)
    assert got == want
    assert list(got) == list(want)


def test_born_joint_of_contradictory_combinations_is_zero():
    """Observing one subsystem twice: combinations that disagree weigh
    exactly 0.0, and a coarse class holds exactly its fine classes' mass."""
    state, subs = _cost_guard_state()
    fine, coarse = _observable(subs[0], False), _observable(subs[0], True)
    joint = born_joint_distribution(state, [fine, coarse, fine])
    assert joint == _filtered_born_joint(state, [fine, coarse, fine])
    for (first, merged, last), p in joint.items():
        if first != last or coarse.class_of(first) != merged:
            assert p == 0.0
        else:
            assert p > 0.0
    single = born_joint_distribution(state, [fine])
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
    for label in subs[0].labels:
        assert joint[label, coarse.class_of(label), label] == single[(label,)]


def test_concurrent_queries_between_mutations_agree():
    """Queries from several threads on one observer, between mutations, all
    see the from-root answer: the cache fill is an idempotent write. Three
    passes over the observables repeat facts the branch already fixes, so
    the threads also race to record and read the selectors it keeps whole."""
    state, subs = _cost_guard_state()
    observables = [_observable(sub, deg) for sub in subs for deg in (False, True)]
    u = create_universe(state)
    o = u.register_observer("alice")
    rng = RngStream(5)
    errors = []

    def query(rounds):
        try:
            for _ in range(rounds):
                for obs in observables:
                    got = u.branch_probabilities(o, obs)
                    if got != _reference_probabilities(u, o, obs):
                        errors.append(obs.name)
                    if u.conditional_state(o) != _reference_conditional(u, o):
                        errors.append("conditional state")
                    got.clear()
        except Exception as exc:  # reported through the assertion below
            errors.append(repr(exc))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in range(3 * len(observables)):
            threads = [threading.Thread(target=query, args=(20,)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            u.observe(o, observables[step % len(observables)], rng)
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []


@st.composite
def _programs(draw):
    """Steps for two observers over ``_entangled_universes``' subsystems
    s0.. (indices below the system count) and pointers p0..p2 after them."""
    step = st.one_of(
        st.tuples(
            st.just("observe"),
            st.integers(0, 1),
            st.integers(0, 7),
            # None, a date in [0, clock] as a fraction of the clock, or a
            # date 1-3 ticks after the clock, which the engine refuses.
            st.one_of(st.none(), st.floats(0.0, 1.0), st.integers(1, 3)),
        ),
        st.tuples(st.just("entangle"), st.integers(0, 3), st.integers(0, N_POINTERS - 1)),
        st.tuples(st.just("advance"), st.integers(0, 3)),
    )
    return draw(st.lists(step, min_size=1, max_size=16))


def _run_program(initial, subs, pointers, program, seed):
    """Run the program on a fresh universe, asserting the README's engine
    invariants after every step; returns the trace and ledger exports."""
    u = create_universe(initial)
    observers = [u.register_observer("a"), u.register_observer("b")]
    rng = RngStream(seed)
    targets = subs + pointers
    fired, read = set(), set()
    known = {}  # (observer, proposition, query time) -> first defined truth value
    snapshots = [([o.ledger.records for o in observers], u.trace)]
    for step in program:
        before = _snapshot(u, observers)
        stream = copy.deepcopy(rng)
        refused = False
        if step[0] == "observe":
            _, k, i, when = step
            target = targets[i % len(targets)]
            if isinstance(when, float):
                when = int(when * u.clock)
            elif isinstance(when, int):
                when = u.clock + when
            ask = u.communicate if target in pointers else u.observe
            if when is not None and when > u.clock:
                refused = True
                with pytest.raises(ValueError, match="t_happened"):
                    ask(observers[k], label_observable(target), rng, t_happened=when)
            else:
                ask(observers[k], label_observable(target), rng, t_happened=when)
                if target in pointers:
                    read.add(target.name)
        elif step[0] == "entangle":
            _, i, j = step
            system = label_observable(subs[i % len(subs)])
            pointer = pointers[j]
            correlation = {c: f"r{n}" for n, c in enumerate(system.class_names)}
            if pointer.name in fired or pointer.name in read:
                refused = True
                with pytest.raises(PointerNotReady):
                    u.entangle_step(system, pointer, correlation)
            else:
                u.entangle_step(system, pointer, correlation)
                fired.add(pointer.name)
        else:
            u.advance_clock(u.clock + step[1])
        if refused:
            assert _snapshot(u, observers) == before
            assert copy.deepcopy(rng).random() == stream.random()
        # Every selector on every path keeps probability 1, replies included.
        for o in observers:
            for obs, outcome in o.path_selectors():
                assert u.branch_probabilities(o, obs)[outcome] == pytest.approx(1.0, abs=1e-9)
        # Records and the trace only grow at their ends.
        now = ([o.ledger.records for o in observers], u.trace)
        for earlier, later in zip(snapshots[-1][0], now[0]):
            assert later[: len(earlier)] == earlier
        assert now[1][: len(snapshots[-1][1])] == snapshots[-1][1]
        snapshots.append(now)
        # Truth never reverts, across query times and across later steps.
        for o in observers:
            slots = {(r.proposition.subsystem, r.proposition.t_happened) for r in o.ledger.records}
            for name, t_happened in slots:
                for label in u.subsystem(name).labels:
                    prop = Proposition(name, label, t_happened)
                    defined = None
                    for t in range(u.clock + 2):
                        value = o.ledger.truth_value(prop, t)
                        if defined is not None:
                            assert value is defined
                        elif value is not Truth.INDEFINITE:
                            defined = value
                        if (o.id, prop, t) in known:
                            assert value is known[o.id, prop, t]
                        elif value is not Truth.INDEFINITE:
                            known[o.id, prop, t] = value
    return u.trace_json(), [o.ledger.to_json_lines() for o in observers]


@settings(max_examples=120, deadline=None)
@given(_entangled_universes(), _programs(), st.integers(0, 2**32 - 1))
def test_engine_invariants_hold_for_random_programs(setup, program, seed):
    """The engine rules the README promises, on random mixes of observe,
    communicate (on fired and unfired pointers), entangle_step (on fired,
    read and fresh pointers), clock advances and happening times:

    - a fact dated after its determination, and the firing of a pointer
      that was fired before or that an observer has read, are refused and
      change nothing, the stream position included;
    - every selector on an observer's path keeps probability 1, so a reply
      never conflicts with what she saw;
    - ledger records and the trace are only ever appended to;
    - a proposition on a recorded slot, once TRUE or FALSE, stays so;
    - the same program and seed give the same trace and ledger bytes.

    Only label observables are drawn. A degenerate observable can still make
    truth revert (the open ``FOUND:`` line on ``EventLedger.truth_value`` in
    CHANGES.md), so it is left out of the truth clause until that is fixed.
    """
    u, subs, pointers = setup
    first = _run_program(u.global_state, subs, pointers, program, seed)
    assert _run_program(u.global_state, subs, pointers, program, seed) == first
