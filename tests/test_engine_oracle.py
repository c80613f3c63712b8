"""The engine against a reference interpreter that shares no cache with it.

The reference reuses the numpy model of ``test_dense_model.py``. It holds
the global state as a dense vector and each observer's path as a list of
selectors ``(subsystem name, member labels)``. Every conditional state and
class weight is computed from the root with diagonal projectors (a 0/1 mask
times the vector), every time: the reference has no memo and no answer
table.

Hypothesis draws programs for two or three observers on one universe:
observations with label and degenerate observables, repeated at once so
that fixed facts recur; questions to a pointer (``communicate``); forced
outcomes, supported or not; ``entangle_step`` on fresh, fired and read
pointers; clock advances; and dated observations, some dated after the
clock. Some labels are faint, 1e-9 of the others in amplitude, so a class
can weigh less than an ulp of the total and still hold terms. A replay
step walks an observer's path again with every selector twice, in a new
universe on the same answer table, so that a node sharing another node's
branch hangs on the selector that came next there. After every step each
new trace entry and every observer's conditional state must match the
reference within 1e-12, and a step must be refused exactly when the
reference refuses it. Truth values are not checked: a degenerate
observable can still make one revert (ROADMAP item 3).

Each program runs on a plain ``Universe`` and then twice on universes
that share one ``_AnswerTable``, the second run reading what the first
wrote; the three traces must be equal. Every program ends with a replay
of each observer's path.
"""
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hangon import AllOutcomesForbidden, EmptyBranch, FixedStream, PointerNotReady, Subsystem, make_state, tensor
from hangon import engine
from hangon.engine import force_observe

from test_dense_model import TOL, _observable, d_premeasure, dense


class Reference:
    """The dense global state, each observer's selectors, the clock and the
    subsystems anyone has observed; nothing derived from them is kept."""

    def __init__(self, d, n):
        self.d = d
        self.paths = [[] for _ in range(n)]
        self.clock = 0
        self.observed = set()

    def conditional(self, k):
        vec = self.d.vec
        for name, members in self.paths[k]:
            vec = self.d.mask(name, members) * vec
        return vec / np.sqrt(np.vdot(vec, vec).real)

    def weights(self, k, obs):
        vec = self.conditional(k)
        name = obs.subsystem.name
        return {
            cls: float(np.vdot(vec, self.d.mask(name, members) * vec).real)
            for cls, members in obs.outcome_classes.items()
        }

    def hang_on(self, k, obs, outcome):
        self.paths[k].append((obs.subsystem.name, obs.outcome_classes[outcome]))
        self.observed.add(obs.subsystem.name)
        self.clock += 1

    def ready(self, pointer):
        """No one has read the pointer, and it is ready in every term."""
        fired = self.d.mask(pointer.name, pointer.labels[1:])
        return pointer.name not in self.observed and not np.any(self.d.vec[fired])


_amp = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -0.25])


@st.composite
def universes(draw):
    """2-3 systems of 2-3 labels, two ready pointers and 2-3 observers. A
    system may have one faint label: every term holding it is scaled by
    1e-9, so its class weighs about 1e-18, less than an ulp of the rest."""
    subs = [
        Subsystem(f"s{i}", tuple(f"l{j}" for j in range(draw(st.integers(2, 3)))))
        for i in range(draw(st.integers(2, 3)))
    ]
    faint = [draw(st.sampled_from((None,) + sub.labels)) for sub in subs]
    keys = list(itertools.product(*(s.labels for s in subs)))
    terms = [
        (k, complex(draw(_amp), draw(_amp)) * 1e-9 ** sum(map(operator.eq, k, faint)))
        for k in keys
    ]
    terms = [(k, a) for k, a in terms if a] or [(keys[0], 1.0)]
    state = make_state(subs, terms)
    pointers = [Subsystem(f"p{i}", ("ready", "r0", "r1", "r2")) for i in range(2)]
    for p in pointers:
        state = tensor(state, make_state([p], [(("ready",), 1.0)]))
    return state, subs, pointers, draw(st.integers(2, 3))


# A date is None (now), a fraction of the clock, or 1-2 ticks after it.
_when = st.one_of(st.none(), st.floats(0.0, 1.0), st.integers(1, 2))
_step = st.one_of(
    st.tuples(
        st.just("observe"), st.integers(0, 2), st.integers(0, 4), st.booleans(), _when,
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3),
    ),
    st.tuples(st.just("force"), st.integers(0, 2), st.integers(0, 4), st.booleans(), st.integers(0, 2)),
    st.tuples(st.just("entangle"), st.integers(0, 2), st.booleans(), st.integers(0, 1), st.permutations(range(4))),
    st.tuples(st.just("advance"), st.integers(0, 3)),
    st.tuples(st.just("replay"), st.integers(0, 2)),
)


def run(state, subs, pointers, n, pool, program, answers):
    """Run the program on a fresh universe, checking it against the
    reference after every step; returns the trace."""
    u = engine.Universe(state, _answers=answers)
    observers = [u.register_observer(f"o{k}") for k in range(n)]
    ref = Reference(dense(state), n)
    targets = subs + pointers
    for step in program:
        if step[0] in ("observe", "force"):
            k, target, degenerate = step[1] % n, targets[step[2] % len(targets)], step[3]
            o, obs = observers[k], pool[target.name, degenerate]
            weights = ref.weights(k, obs)
            if step[0] == "force":
                outcome = obs.class_names[step[4] % len(obs.class_names)]
                if weights[outcome] == 0.0:
                    with pytest.raises(EmptyBranch):
                        force_observe(u, o, obs, outcome)
                    continue
                p = force_observe(u, o, obs, outcome)
                assert abs(p - weights[outcome]) <= TOL
                draws = [None]
            else:
                draws = step[5]
            for draw in draws:
                if draw is not None:
                    when = step[4]
                    if isinstance(when, float):
                        when = int(when * ref.clock)
                    elif when is not None:
                        when += ref.clock
                    ask = u.communicate if target in pointers else u.observe
                    if when is not None and when > ref.clock:
                        with pytest.raises(ValueError, match="t_happened"):
                            ask(o, obs, FixedStream([draw]), when)
                        continue
                    if not sum(weights.values()) > TOL:
                        with pytest.raises(AllOutcomesForbidden):
                            ask(o, obs, FixedStream([draw]), when)
                        continue
                    outcome = ask(o, obs, FixedStream([draw]), when)
                entry = u.trace[-1]
                assert entry[:4] == (o.id, ref.clock, obs.name, outcome)
                assert weights[outcome] > 0.0
                assert abs(entry.probability - weights[outcome]) <= TOL
                ref.hang_on(k, obs, outcome)
                weights = ref.weights(k, obs)
        elif step[0] == "entangle":
            system = pool[subs[step[1] % len(subs)].name, step[2]]
            pointer = pointers[step[3]]
            correlation = dict(zip(system.class_names, (pointer.labels[i] for i in step[4])))
            if not ref.ready(pointer):
                with pytest.raises(PointerNotReady):
                    u.entangle_step(system, pointer, correlation)
            else:
                u.entangle_step(system, pointer, correlation)
                target_of = {lab: correlation[system.class_of(lab)] for lab in system.subsystem.labels}
                ref.d = d_premeasure(ref.d, system.subsystem.name, target_of, pointer.name)
                ref.clock += 1
        elif step[0] == "replay":
            w = engine.Universe(u.global_state, _answers=answers)
            r, again = w.register_observer("replay"), Reference(ref.d, 1)
            for selector in observers[step[1] % n].path_selectors():
                for obs, outcome in (selector, selector):
                    force_observe(w, r, obs, outcome)
                    again.hang_on(0, obs, outcome)
                    assert np.max(np.abs(dense(w.conditional_state(r)).vec - again.conditional(0))) <= TOL
        else:
            u.advance_clock(u.clock + step[1])
            ref.clock += step[1]
        assert u.clock == ref.clock
        for k, o in enumerate(observers):
            assert np.max(np.abs(dense(u.conditional_state(o)).vec - ref.conditional(k))) <= TOL
    return u.trace


@settings(max_examples=100, deadline=None)
@given(universes(), st.lists(_step, min_size=1, max_size=12))
def test_engine_matches_a_reference_without_caches(setup, program):
    state, subs, pointers, n = setup
    pool = {(sub.name, deg): _observable(sub, deg) for sub in subs + pointers for deg in (False, True)}
    program += [("replay", k) for k in range(n)]
    trace = run(state, subs, pointers, n, pool, program, None)
    table = engine._AnswerTable()
    for _ in range(2):
        assert run(state, subs, pointers, n, pool, program, table) == trace
