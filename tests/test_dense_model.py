"""hangon's sparse state algebra against an independent dense model.

The model never calls hangon. A state is a numpy vector over the product of
its subsystems' label tuples, in row-major order (the first subsystem
varies slowest), which is the order ``np.kron`` builds:
- ``tensor`` is ``np.kron``;
- ``project`` and ``outcome_probability`` use the diagonal projector onto
  the basis states whose label on the measured subsystem is in the class;
- ``premeasure`` is a permutation of the basis: for each system label, it
  swaps the pointer's ready label with that label's target.

On a ready pointer the permutation does what ``premeasure`` does; it is a
unitary on the whole space, so the model is not built from hangon's rule.
"""
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hangon import (
    EmptyBranch,
    Observable,
    Subsystem,
    label_observable,
    make_state,
    outcome_probability,
    premeasure,
    project,
    tensor,
)
from hangon.analysis import Entangle, Observe, Schedule

TOL = 1e-12


class Dense:
    """A vector over the product basis of ``labels`` (one tuple per subsystem)."""

    def __init__(self, names, labels, vec):
        self.names, self.labels, self.vec = list(names), list(labels), vec
        # axis[k][j]: index of subsystem k's label in basis state j.
        self.axis = np.indices([len(l) for l in labels]).reshape(len(labels), -1)

    def mask(self, name, members):
        k = self.names.index(name)
        return np.isin(self.axis[k], [self.labels[k].index(l) for l in members])


def dense(s):
    """The model's vector for a hangon state, read from its public terms."""
    labels = [sub.labels for sub in s.subsystems]
    vec = np.zeros([len(l) for l in labels], dtype=complex)
    for key, amp in s.terms.items():
        vec[tuple(l.index(x) for l, x in zip(labels, key))] = amp
    return Dense([sub.name for sub in s.subsystems], labels, vec.ravel())


def d_tensor(a, b):
    return Dense(a.names + b.names, a.labels + b.labels, np.kron(a.vec, b.vec))


def d_project(d, name, members):
    return Dense(d.names, d.labels, np.diag(d.mask(name, members).astype(float)) @ d.vec)


def d_probability(d, name, members):
    return float(np.real(np.vdot(d.vec, np.diag(d.mask(name, members).astype(float)) @ d.vec)))


def d_premeasure(d, system, target_of, pointer):
    """``target_of`` maps each system label to its pointer label."""
    s, p = d.names.index(system), d.names.index(pointer)
    ready, size = 0, len(d.vec)
    perm = np.zeros((size, size))
    for j in range(size):
        digits = list(d.axis[:, j])
        t = d.labels[p].index(target_of[d.labels[s][digits[s]]])
        digits[p] = {ready: t, t: ready}.get(digits[p], digits[p])
        perm[np.ravel_multi_index(digits, [len(l) for l in d.labels]), j] = 1.0
    return Dense(d.names, d.labels, perm @ d.vec)


def assert_close(s, d):
    got = dense(s)
    assert got.names == d.names and got.labels == d.labels
    assert np.max(np.abs(got.vec - d.vec)) <= TOL


_amp = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
POINTERS = [Subsystem(f"p{i}", ("ready", "r0", "r1", "r2")) for i in range(2)]


@st.composite
def systems(draw):
    """A normalised complex state on one or two system subsystems."""
    subs = [
        Subsystem(f"s{i}", tuple(f"l{j}" for j in range(draw(st.integers(2, 3)))))
        for i in range(draw(st.integers(1, 2)))
    ]
    keys = list(itertools.product(*(s.labels for s in subs)))
    terms = [(k, complex(draw(_amp), draw(_amp))) for k in keys]
    if sum(abs(a) ** 2 for _, a in terms) < 1e-6:
        terms[0] = (terms[0][0], 1.0 + 0.5j)
    return make_state(subs, terms)


def _observable(sub, degenerate):
    """The label observable, or one that merges the first two labels."""
    if degenerate:
        classes = {"merged": sub.labels[:2]}
        classes.update({lab: (lab,) for lab in sub.labels[2:]})
        return Observable(sub, classes)
    return label_observable(sub)


@settings(max_examples=120, deadline=None)
@given(systems(), st.data())
def test_chains_of_premeasure_and_project_match_the_dense_model(system, data):
    ready = [make_state([p], [(("ready",), 1.0)]) for p in POINTERS]
    s = tensor(tensor(system, ready[0]), ready[1])
    d = d_tensor(d_tensor(dense(system), dense(ready[0])), dense(ready[1]))
    assert_close(s, d)
    unfired = list(POINTERS)
    for _ in range(data.draw(st.integers(1, 5), label="steps")):
        sub = data.draw(st.sampled_from(s.subsystems), label="subsystem")
        obs = _observable(sub, data.draw(st.booleans(), label="degenerate"))
        if sub in unfired or not unfired or data.draw(st.booleans(), label="project"):
            cls = data.draw(st.sampled_from(obs.class_names), label="class")
            members = obs.outcome_classes[cls]
            try:
                s = project(s, obs, cls)
            except EmptyBranch:
                assert d_probability(d, sub.name, members) <= TOL
                continue
            d = d_project(d, sub.name, members)
        else:
            pointer = data.draw(st.sampled_from(unfired), label="pointer")
            targets = data.draw(st.permutations(pointer.labels), label="targets")
            correlation = dict(zip(obs.class_names, targets))
            s = premeasure(s, obs, pointer, correlation)
            target_of = {lab: correlation[obs.class_of(lab)] for lab in sub.labels}
            d = d_premeasure(d, sub.name, target_of, pointer.name)
            unfired.remove(pointer)
        assert_close(s, d)
        for any_sub in s.subsystems:
            for degenerate in (False, True):
                asked = _observable(any_sub, degenerate)
                for cls, members in asked.outcome_classes.items():
                    assert abs(outcome_probability(s, asked, cls) - d_probability(d, any_sub.name, members)) <= TOL


@settings(max_examples=60, deadline=None)
@given(systems(), systems())
def test_tensor_is_kron(a, b):
    renamed = make_state(
        [Subsystem("t" + sub.name, sub.labels) for sub in b.subsystems], list(b.terms.items())
    )
    assert_close(tensor(a, renamed), d_tensor(dense(a), dense(renamed)))


@settings(max_examples=60, deadline=None)
@given(systems(), st.data())
def test_schedule_joint_on_premeasured_states_matches_the_dense_model(system, data):
    """Each pointer fires at most once and is observed only after it fires.
    Then every premeasurement commutes with the projections of observations
    made before it, so the chain product of a walk is the squared norm of
    the initial state, premeasured by every step and projected onto every
    outcome."""
    ready = [make_state([p], [(("ready",), 1.0)]) for p in POINTERS]
    state = tensor(tensor(system, ready[0]), ready[1])
    d = d_tensor(d_tensor(dense(system), dense(ready[0])), dense(ready[1]))
    readable = list(system.subsystems)
    steps = []
    for _ in range(data.draw(st.integers(1, 5), label="steps")):
        sub = data.draw(st.sampled_from(readable), label="subsystem")
        obs = _observable(sub, data.draw(st.booleans(), label="degenerate"))
        unfired = [p for p in POINTERS if p not in readable]
        if unfired and data.draw(st.booleans(), label="entangle"):
            pointer = data.draw(st.sampled_from(unfired), label="pointer")
            targets = data.draw(st.permutations(pointer.labels), label="targets")
            correlation = dict(zip(obs.class_names, targets))
            steps.append(Entangle(obs, pointer, correlation))
            target_of = {lab: correlation[obs.class_of(lab)] for lab in sub.labels}
            d = d_premeasure(d, sub.name, target_of, pointer.name)
            readable.append(pointer)
        elif sum(isinstance(step, Observe) for step in steps) < 3:
            steps.append(Observe(obs))
    joint = Schedule(state, tuple(steps)).joint()
    observed = [step.obs for step in steps if isinstance(step, Observe)]
    assert set(joint) == set(itertools.product(*(o.class_names for o in observed)))
    for combo, p in joint.items():
        branch = d
        for obs, cls in zip(observed, combo):
            branch = d_project(branch, obs.subsystem.name, obs.outcome_classes[cls])
        assert abs(p - float(np.vdot(branch.vec, branch.vec).real)) <= TOL
