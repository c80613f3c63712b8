"""Schedules: sampled runs and forced walks against hand-rolled engine loops."""
import pytest

from hangon import create_universe, engine, make_state, tensor
from hangon.analysis import Entangle, Observe, Schedule
from hangon.engine import force_observe
from hangon.errors import SimulationError
from hangon.rng import RngStream
from hangon.scenarios import (
    ORDERS,
    build_epr_universe,
    partial_pair_state,
    run_epr,
    run_partial_pair,
    singlet_state,
)
from hangon.scenarios.epr import (
    a_spin,
    b_spin,
    epr_schedule,
    first_observable,
    partial_pair_schedule,
    record_observable,
    second_observable,
)

RECORD = build_epr_universe(with_record=True).subsystem("bob_record")
SPINS = ("+", "-")


def _epr_base():
    return tensor(singlet_state(), make_state([RECORD], [(("ready",), 1.0)]))


def reference_epr(order, n, seed):
    """The per-trial loop and the forced walks, spelled out by hand."""
    obs_a, obs_b, obs_rec = a_spin(), b_spin(), record_observable()
    correlation = {"+": "+", "-": "-"}
    rng = RngStream(seed)
    counts = {(a, b): 0 for a in SPINS for b in SPINS}
    for _ in range(n):
        u = create_universe(_epr_base())
        alice = u.register_observer("alice")
        if order == "bob_record_first":
            u.entangle_step(obs_b, RECORD, correlation)
            mine = u.observe(alice, obs_a, rng)
        else:
            mine = u.observe(alice, obs_a, rng)
            u.entangle_step(obs_b, RECORD, correlation)
        counts[(mine, u.communicate(alice, obs_rec, rng))] += 1
    joint = {}
    for mine in SPINS:
        u = create_universe(_epr_base())
        alice = u.register_observer("alice")
        if order == "bob_record_first":
            u.entangle_step(obs_b, RECORD, correlation)
        p_mine = force_observe(u, alice, obs_a, mine)
        if order == "alice_first":
            u.entangle_step(obs_b, RECORD, correlation)
        replies = u.branch_probabilities(alice, obs_rec)
        for reply in SPINS:
            joint[(mine, reply)] = p_mine * replies[reply]
    return counts, joint


def reference_partial_pair(n, seed):
    rng = RngStream(seed)
    counts = {(x, y): 0 for x in ("X", "Y") for y in ("a", "b")}
    for _ in range(n):
        u = create_universe(partial_pair_state())
        o = u.register_observer("alice")
        x = u.observe(o, first_observable(), rng)
        counts[(x, u.observe(o, second_observable(), rng))] += 1
    joint = {}
    for x in ("X", "Y"):
        u = create_universe(partial_pair_state())
        o = u.register_observer("alice")
        p_first = u.branch_probabilities(o, first_observable())[x]
        force_observe(u, o, first_observable(), x)
        seconds = u.branch_probabilities(o, second_observable())
        for y in ("a", "b"):
            joint[(x, y)] = p_first * seconds[y]
    return counts, joint


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", [0, 11])
def test_epr_matches_the_hand_rolled_loop_exactly(order, seed):
    run = run_epr(order, 400, seed)
    counts, joint = reference_epr(order, 400, seed)
    assert run.counts == counts
    assert run.analytic == joint
    assert list(run.counts) == list(run.analytic)


@pytest.mark.parametrize("seed", [0, 11])
def test_partial_pair_matches_the_hand_rolled_loop_exactly(seed):
    run = run_partial_pair(600, seed)
    counts, joint = reference_partial_pair(600, seed)
    assert run.counts == counts
    assert run.analytic == joint


@pytest.fixture
def observe_calls(monkeypatch):
    calls = [0]
    real_observe = engine.Universe.observe

    def counting_observe(self, *args, **kwargs):
        calls[0] += 1
        return real_observe(self, *args, **kwargs)

    monkeypatch.setattr(engine.Universe, "observe", counting_observe)
    return calls


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [1, 25])
def test_run_epr_observes_twice_per_trial_and_per_joint_walk(observe_calls, order, n):
    run_epr(order, n, seed=3)
    assert observe_calls[0] == 2 * n + 2


@pytest.mark.parametrize("n", [1, 25])
def test_run_partial_pair_observes_twice_per_trial_and_per_joint_walk(observe_calls, n):
    run_partial_pair(n, seed=3)
    assert observe_calls[0] == 2 * n + 2


def test_walk_multiplies_branch_probabilities_and_stops_without_support():
    schedule = partial_pair_schedule()
    _, observer, p = schedule.walk(("X", "a"))
    assert p == pytest.approx(1 / 3, abs=1e-12)
    assert [outcome for _, outcome in observer.path_selectors()] == ["X", "a"]
    _, observer, p = schedule.walk(("Y", "b"))
    assert p == 0.0
    assert [outcome for _, outcome in observer.path_selectors()] == ["Y"]
    _, observer, p = schedule.walk(())
    assert p == 1.0 and observer.depth == 0


def test_walk_applies_entangle_steps_before_the_first_unforced_observation():
    schedule = epr_schedule("alice_first")
    universe, observer, p = schedule.walk(("+",))
    assert p == pytest.approx(0.5, abs=1e-12)
    assert universe.branch_probabilities(observer, record_observable())["-"] == pytest.approx(1.0)


def test_counts_list_every_combination_and_run_returns_each_outcome():
    pointer = make_state([RECORD], [(("ready",), 1.0)])
    schedule = Schedule(
        tensor(singlet_state(), pointer),
        (Observe(a_spin()), Entangle(b_spin(), RECORD, {"+": "+", "-": "-"}), Observe(record_observable())),
    )
    counts = schedule.counts(50, RngStream(2))
    assert set(counts) == {(a, r) for a in SPINS for r in ("ready",) + SPINS}
    assert sum(counts.values()) == 50
    assert counts[("+", "+")] == counts[("-", "-")] == counts[("+", "ready")] == 0
    universe, observer, outcomes = schedule.run(RngStream(2))
    assert len(outcomes) == 2 and outcomes[0] != outcomes[1]
    assert universe.clock == 3 and observer.depth == 2


def test_a_ready_reply_is_an_error_not_a_dropped_trial(monkeypatch):
    real_observe = engine.Universe.observe

    def deaf_record(self, observer, obs, rng, *args, **kwargs):
        outcome = real_observe(self, observer, obs, rng, *args, **kwargs)
        return "ready" if obs.name == "bob_record" else outcome

    monkeypatch.setattr(engine.Universe, "observe", deaf_record)
    with pytest.raises(SimulationError, match="ready"):
        run_epr("alice_first", 5, seed=1)
