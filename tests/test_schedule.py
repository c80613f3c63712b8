"""Schedules: sampled runs and forced walks against hand-rolled engine loops."""
import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hangon import (
    Observable,
    StateVector,
    Subsystem,
    create_universe,
    engine,
    label_observable,
    make_state,
    tensor,
    verify,
)
from hangon.analysis import Advance, Entangle, Observe, Schedule, sequential_joint_distribution
from hangon.engine import force_observe
from hangon.errors import SimulationError, UnknownOutcome
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


def test_walk_refuses_an_outcome_the_observable_lacks():
    with pytest.raises(UnknownOutcome, match="'Z'"):
        partial_pair_schedule().walk(("Z",))


def test_walk_refuses_surplus_outcomes(monkeypatch):
    # Before the check, walk(("X", "a", "bogus", "more")) returned 1/3.
    schedule = partial_pair_schedule()

    def no_universe(*args, **kwargs):
        raise AssertionError("a universe was built")

    monkeypatch.setattr("hangon.analysis.Universe", no_universe)
    with pytest.raises(ValueError, match="4 outcomes for 2 observations"):
        schedule.walk(("X", "a", "bogus", "more"))
    with pytest.raises(ValueError, match="3 outcomes for 2 observations"):
        schedule.walk(("X", "a", "a"))
    monkeypatch.undo()
    # Fewer outcomes than observations still walk a prefix.
    _, observer, p = schedule.walk(("X",))
    assert observer.depth == 1 and p == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize("n, error", [(-3, ValueError), (True, TypeError), (2.0, TypeError), ("5", TypeError)])
def test_counts_refuses_a_bad_trial_count(n, error):
    rng = RngStream(4)
    with pytest.raises(error, match="trial count|integer"):
        epr_schedule("alice_first").counts(n, rng)
    # Nothing was drawn.
    assert rng.random() == RngStream(4).random()


def test_walk_applies_entangle_steps_before_the_first_unforced_observation():
    schedule = epr_schedule("alice_first")
    universe, observer, p = schedule.walk(("+",))
    assert p == pytest.approx(0.5, abs=1e-12)
    assert universe.branch_probabilities(observer, record_observable())["-"] == pytest.approx(1.0)


def test_a_schedule_without_observations_has_one_certain_empty_outcome():
    pointer = make_state([RECORD], [(("ready",), 1.0)])
    entangled = Schedule(
        tensor(singlet_state(), pointer), (Entangle(b_spin(), RECORD, {"+": "+", "-": "-"}),)
    )
    for schedule in (Schedule(singlet_state(), ()), entangled):
        assert schedule.joint() == {(): 1.0}
        assert schedule.counts(5, RngStream(0)) == {(): 5}
        assert sequential_joint_distribution(schedule.initial, []) == {(): 1.0}


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


def _observable(sub, degenerate):
    if degenerate and len(sub.labels) >= 3:
        classes = {"merged": sub.labels[:2]}
        classes.update({lab: (lab,) for lab in sub.labels[2:]})
        return Observable(sub, classes, name=f"{sub.name}_deg")
    return label_observable(sub)


N_POINTERS = 3


@st.composite
def _schedules(draw):
    """A random 2-3 subsystem state with ready pointers p0..p2, and 1-7
    entangle and observe steps over label and degenerate observables, each
    maybe after a clock advance. Only fired pointers are observed: a "ready"
    selector loses its support once its pointer fires. An observation may
    date its fact to any time up to the clock."""
    subs = [
        Subsystem(f"s{i}", tuple(f"l{j}" for j in range(draw(st.integers(2, 3)))))
        for i in range(draw(st.integers(2, 3)))
    ]
    keys = list(itertools.product(*(sub.labels for sub in subs)))
    part = st.integers(-3, 3).map(lambda x: x / 2.0)
    amps = draw(st.lists(st.tuples(part, part), min_size=len(keys), max_size=len(keys)))
    terms = [(k, complex(re, im)) for k, (re, im) in zip(keys, amps) if re or im] or [(keys[0], 1.0)]
    state = make_state(subs, terms)
    pointers = [Subsystem(f"p{k}", ("ready", "r0", "r1", "r2")) for k in range(N_POINTERS)]
    for ptr in pointers:
        state = tensor(state, make_state([ptr], [(("ready",), 1.0)]))
    pool = {(sub.name, deg): _observable(sub, deg) for sub in subs + pointers for deg in (False, True)}
    steps, fired, clock = [], 0, 0
    for _ in range(draw(st.integers(1, 7), label="steps")):
        if draw(st.booleans(), label="advance"):
            clock += draw(st.integers(0, 3), label="ahead")
            steps.append(Advance(clock))
        if fired < N_POINTERS and draw(st.booleans(), label="entangle"):
            system = pool[draw(st.sampled_from(subs)).name, draw(st.booleans())]
            correlation = {c: f"r{j}" for j, c in enumerate(system.class_names)}
            steps.append(Entangle(system, pointers[fired], correlation))
            fired += 1
        else:
            sub = draw(st.sampled_from(subs + pointers[:fired]), label="observed")
            obs = pool[sub.name, draw(st.booleans(), label="degenerate")]
            steps.append(Observe(obs, draw(st.none() | st.integers(0, clock), label="dated")))
        clock += 1  # entangle and observe steps take one tick each
    if not any(isinstance(step, Observe) for step in steps):
        steps.append(Observe(pool[subs[0].name, False]))
    return Schedule(state, tuple(steps))


@settings(max_examples=60, deadline=None)
@given(_schedules(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_shared_answers_equal_universes_that_share_nothing(schedule, n, seed):
    """``counts``, ``joint`` and ``sequential_joint_distribution`` share
    premeasurements and branch answers between the universes of one call;
    each equals the same walks on universes built without sharing, exactly
    and in the same key order."""
    observables = [step.obs for step in schedule.steps if isinstance(step, Observe)]
    combinations = list(itertools.product(*(o.class_names for o in observables)))

    counts = schedule.counts(n, RngStream(seed))
    tally = dict.fromkeys(combinations, 0)
    rng = RngStream(seed)
    for _ in range(n):
        tally[schedule.run(rng)[2]] += 1
    assert counts == tally
    assert list(counts) == list(tally)

    *head, last = observables
    alone = {}
    for prefix in itertools.product(*(o.class_names for o in head)):
        universe, observer, p = schedule.walk(prefix)
        weights = universe.branch_probabilities(observer, last) if p > 0.0 else {}
        for cls in last.class_names:
            alone[prefix + (cls,)] = p * weights.get(cls, 0.0)
    joint = schedule.joint()
    assert joint == alone
    assert list(joint) == list(alone)

    universe = create_universe(schedule.initial)
    for step in schedule.steps:
        if isinstance(step, Entangle):
            universe.entangle_step(*step)
    fired = universe.global_state
    sequential = sequential_joint_distribution(fired, observables)
    forced = Schedule(fired, tuple(Observe(o) for o in observables))
    alone = {combo: forced.walk(combo)[2] for combo in combinations}
    assert sequential == alone
    assert list(sequential) == list(alone)


def _engine_loop(schedule, rng):
    """``Schedule.run`` spelled out by hand on a bare universe."""
    u = create_universe(schedule.initial)
    alice = u.register_observer("alice")
    outcomes = []
    for step in schedule.steps:
        if isinstance(step, Advance):
            u.advance_clock(step.to)
        elif isinstance(step, Entangle):
            u.entangle_step(step.system_obs, step.pointer, step.correlation)
        else:
            outcomes.append(u.observe(alice, step.obs, rng, t_happened=step.t_happened))
    return u, alice, tuple(outcomes)


def _untimed(schedule):
    """The same schedule without its clock advances and dates."""
    steps = tuple(
        Observe(step.obs) if isinstance(step, Observe) else step
        for step in schedule.steps
        if not isinstance(step, Advance)
    )
    return Schedule(schedule.initial, steps)


@settings(max_examples=60, deadline=None)
@given(_schedules(), st.integers(0, 2**32 - 1))
def test_run_equals_the_hand_rolled_engine_loop(schedule, seed):
    """Clock advances and dated observations run as the engine runs them:
    the same outcomes, trace, ledger, clock and stream position."""
    rng, reference = RngStream(seed), RngStream(seed)
    universe, alice, outcomes = schedule.run(rng)
    u, o, expected = _engine_loop(schedule, reference)
    assert outcomes == expected
    assert universe.trace_json() == u.trace_json()
    assert alice.ledger.to_json_lines() == o.ledger.to_json_lines()
    assert universe.clock == u.clock
    assert rng.random() == reference.random()
    # A walk forced onto the sampled outcomes retraces the run.
    walked, forced, p = schedule.walk(outcomes)
    assert p > 0.0
    assert walked.trace_json() == universe.trace_json()
    assert forced.ledger.to_json_lines() == alice.ledger.to_json_lines()
    assert walked.clock == universe.clock


@settings(max_examples=40, deadline=None)
@given(_schedules(), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_clock_advances_and_dates_change_no_weight_or_draw(schedule, n, seed):
    """``walk``, ``joint`` and ``counts`` equal those of the schedule with
    its advances and dates removed."""
    untimed = _untimed(schedule)
    for timed, plain in (
        (schedule.counts(n, RngStream(seed)), untimed.counts(n, RngStream(seed))),
        (schedule.joint(), untimed.joint()),
    ):
        assert timed == plain
        assert list(timed) == list(plain)
    observables = [step.obs for step in schedule.steps if isinstance(step, Observe)]
    combos = itertools.product(*(o.class_names for o in observables))
    for combo in itertools.chain([schedule.run(RngStream(seed))[2]], itertools.islice(combos, 64)):
        for k in range(len(combo) + 1):
            _, timed_observer, p = schedule.walk(combo[:k])
            _, observer, q = untimed.walk(combo[:k])
            assert p == q
            assert timed_observer.path_selectors() == observer.path_selectors()


@settings(max_examples=40, deadline=None)
@given(_schedules(), st.data(), st.integers(0, 2**32 - 1))
def test_a_future_dated_observation_is_refused_as_the_engine_refuses_it(schedule, data, seed):
    """An ``Observe`` dated after the clock raises the engine's ValueError."""
    i = data.draw(st.integers(0, len(schedule.steps)), label="at")
    clock = 0
    for step in schedule.steps[:i]:
        clock = step.to if isinstance(step, Advance) else clock + 1
    late = Observe(label_observable(schedule.initial.subsystems[0]), clock + data.draw(st.integers(1, 5)))
    steps = schedule.steps[:i] + (late,) + schedule.steps[i:]
    bad = Schedule(schedule.initial, steps)
    with pytest.raises(ValueError, match="t_happened") as from_run:
        bad.run(RngStream(seed))
    with pytest.raises(ValueError, match="t_happened") as from_engine:
        _engine_loop(bad, RngStream(seed))
    assert str(from_run.value) == str(from_engine.value)


def test_steps_with_times_that_are_not_integers_are_refused():
    # Before bools were refused, Advance(True) moved the clock to 1 and
    # Observe(obs, False) dated its fact 0.
    schedule = partial_pair_schedule()
    obs = schedule.steps[0].obs
    refused = (
        (Advance(2.5),),
        (Advance(3), Observe(obs, 1.0)),
        (Advance(True),),
        (Advance(3), Observe(obs, False)),
    )
    for steps in refused:
        bad = Schedule(schedule.initial, steps)
        rng = RngStream(0)
        with pytest.raises(TypeError):
            bad.run(rng)
        # Nothing was drawn.
        assert rng.random() == RngStream(0).random()
        with pytest.raises(TypeError):
            bad.walk(("X",) * len(bad._observables()))


def test_no_conflict_trials_sample_the_same_with_a_shared_answer_table():
    """``check_no_conflict`` runs every trial against one answer table; each
    trial's path, reply and violation count equal those of a trial on a
    universe that shares nothing."""
    answers = engine._AnswerTable()
    for schedule, record_obs in verify._conflict_kinds():
        for seed in range(200):
            alone = verify._conflict_trial(schedule, record_obs, RngStream(seed))
            shared = verify._conflict_trial(schedule, record_obs, RngStream(seed), answers)
            assert shared == alone


# ``_conflict_trial(schedule, record_obs, RngStream(seed))`` for seeds 0-49,
# one "outcomes>reply" token per seed, for each of ``_conflict_kinds()`` in
# turn (EPR twice, then the eraser with and without the beam splitter). No
# trial found a violation.
_CONFLICT_GOLDEN = (
    "+>- +>- +>- ->+ +>- ->+ ->+ ->+ ->+ +>- ->+ +>- ->+ ->+ ->+ ->+ +>- +>- ->+ +>- ->+ ->+ ->+ ->+ +>- "
    "->+ ->+ +>- +>- +>- +>- +>- +>- +>- ->+ ->+ +>- ->+ ->+ +>- ->+ ->+ ->+ +>- ->+ +>- ->+ +>- ->+ +>-",
    "+>- +>- +>- ->+ +>- ->+ ->+ ->+ ->+ +>- ->+ +>- ->+ ->+ ->+ ->+ +>- +>- ->+ +>- ->+ ->+ ->+ ->+ +>- "
    "->+ ->+ +>- +>- +>- +>- +>- +>- +>- ->+ ->+ +>- ->+ ->+ +>- ->+ ->+ ->+ +>- ->+ +>- ->+ +>- ->+ +>-",
    "D1>U D2>L D2>U D4>U D1>U D3>L D3>L D4>U D4>U D1>L D4>U D1>L D3>L D4>U D4>U D4>U D2>U D2>U D4>U D2>L "
    "D4>U D4>U D3>L D4>U D1>L D3>L D3>L D2>U D2>L D2>L D1>U D2>L D2>U D2>U D3>L D4>U D2>L D4>U D3>L D2>U "
    "D3>L D4>U D4>U D1>L D3>L D2>U D3>L D1>U D3>L D1>L",
    "D1>U D2>L D2>L D4>U D1>U D3>L D3>L D4>U D4>U D1>U D4>U D1>U D3>L D4>U D4>U D4>U D2>L D2>L D4>U D2>L "
    "D4>U D4>U D3>L D4>U D1>U D3>L D3>L D2>L D2>L D2>L D1>U D2>L D2>L D2>L D3>L D4>U D2>L D4>U D3>L D2>L "
    "D3>L D4>U D4>U D1>U D3>L D2>L D3>L D1>U D3>L D1>U",
)


def test_conflict_trials_golden():
    """Each no-conflict kind samples the literal outcomes and replies above,
    however its schedule is put together."""
    kinds = verify._conflict_kinds()
    assert len(kinds) == len(_CONFLICT_GOLDEN)
    for (schedule, record_obs), golden in zip(kinds, _CONFLICT_GOLDEN):
        tokens = []
        for seed in range(50):
            outcomes, reply, violations = verify._conflict_trial(schedule, record_obs, RngStream(seed))
            assert violations == 0
            tokens.append("".join(outcomes) + ">" + reply)
        assert " ".join(tokens) == golden


def _live_states():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, StateVector)]


def _states_built_since(before):
    known = {id(o) for o in before}
    return [o for o in _live_states() if id(o) not in known]


def _entangle_chain(length):
    """A two-term system with ``length`` ready pointers, each fired in turn
    by one entangle step, then the system and the last pointer observed."""
    system = Subsystem("s", ("l0", "l1"))
    pointers = [Subsystem(f"p{k}", ("ready", "r0", "r1")) for k in range(length)]
    base = make_state([system], [(("l0",), 0.6), (("l1",), 0.8)])
    for ptr in pointers:
        base = tensor(base, make_state([ptr], [(("ready",), 1.0)]))
    obs = label_observable(system)
    correlation = {"l0": "r0", "l1": "r1"}
    steps = tuple(Entangle(obs, ptr, correlation) for ptr in pointers)
    return Schedule(base, steps + (Observe(obs), Observe(label_observable(pointers[-1]))))


def test_schedule_calls_keep_no_state_alive():
    """Every state a call's answer table holds is dropped when it returns."""
    schedule = _entangle_chain(6)
    obs = schedule.steps[-2].obs
    before = _live_states()
    assert any(o is schedule.initial for o in before)
    counts = schedule.counts(30, RngStream(4))
    joint = schedule.joint()
    sequential = sequential_joint_distribution(schedule.initial, [obs, obs])
    assert _states_built_since(before) == []
    assert sum(counts.values()) == 30
    assert joint[("l0", "r0")] == pytest.approx(0.36, abs=1e-12)
    assert sequential[("l1", "l1")] == pytest.approx(0.64, abs=1e-12)


def test_long_entangle_chain_keeps_no_successor_alive():
    """A held base state keeps none of the states a long chain of entangle
    steps derives from it, on a bare universe or through a schedule."""
    schedule = _entangle_chain(60)
    before = _live_states()
    universe = create_universe(schedule.initial)
    for step in schedule.steps:
        if isinstance(step, Entangle):
            universe.entangle_step(*step)
    alice = universe.register_observer("alice")
    universe.observe(alice, schedule.steps[-1].obs, RngStream(8))
    del universe, alice
    assert _states_built_since(before) == []
    schedule.counts(5, RngStream(8))
    schedule.joint()
    assert _states_built_since(before) == []
