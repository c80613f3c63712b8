"""``observe``'s draw rule against a reference loop over the classes.

``observe`` maps a uniform draw ``u`` to the first class of positive weight
whose running sum exceeds ``u * total``, or to the last such class when
rounding leaves ``u * total`` above them all. The reference below is that
rule written as a loop over the classes. Hypothesis draws one-subsystem
states with 1-6 outcome classes, from label and degenerate observables,
with weights that include zeros, equal weights and squared moduli just
above ``PRUNE_THRESHOLD``. The draws include 0.0, the largest float below
1.0, and draws for which ``u * total`` equals a running sum exactly, found
by stepping ulp by ulp from ``running / total``; each is checked on a plain
universe, on universes that share one ``_AnswerTable``, and after a
fixed-fact carry, where the observer reads a split built at a node above.
"""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hangon import FixedStream, Observable, Subsystem, label_observable, make_state
from hangon import engine
from hangon.engine import force_observe
from hangon.states import PRUNE_THRESHOLD


def reference_class(probs, class_names, draw):
    """The draw rule as a loop over the classes, in class order."""
    total = sum(probs.values())
    u = draw * total
    acc = 0.0
    outcome = None
    for cls in class_names:
        p = probs[cls]
        if p > 0.0:
            acc += p
            outcome = cls
            if u < acc:
                break
    return outcome


# Relative weights of the labels that are not faint.
_weight = st.sampled_from([0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 2.0, 3.0, 1e-9])
# Squared moduli of faint labels, set after normalization; a few times
# PRUNE_THRESHOLD, so make_state keeps them.
_faint = st.sampled_from([1.5 * PRUNE_THRESHOLD, 4.0 * PRUNE_THRESHOLD, 1e-20])


@st.composite
def one_subsystem_cases(draw):
    """A state on one subsystem of 2-7 labels, and a label observable (2-6
    classes) or a degenerate one (1-6 classes, in a drawn order)."""
    n = draw(st.integers(2, 7))
    sub = Subsystem("s", tuple(f"l{i}" for i in range(n)))
    weights = [draw(_weight) for _ in range(n)]
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1.0
    big = sum(weights)
    terms = [((label,), math.sqrt(w / big)) for label, w in zip(sub.labels, weights) if w]
    for label, w in zip(sub.labels, weights):
        if not w and draw(st.booleans()):
            terms.append(((label,), math.sqrt(draw(_faint))))
    state = make_state([sub], terms)
    if n <= 6 and draw(st.booleans()):
        obs = label_observable(sub)
    else:
        owner = [draw(st.integers(0, 5)) for _ in range(n)]
        order = draw(st.permutations(sorted(set(owner))))
        obs = Observable(sub, {f"c{k}": [l for l, o in zip(sub.labels, owner) if o == k] for k in order}, name="deg")
    return state, sub, obs


def _running(probs, class_names):
    """The running sums of the positive weights, in class order."""
    acc, running = 0.0, []
    for cls in class_names:
        if probs[cls] > 0.0:
            acc += probs[cls]
            running.append(acc)
    return running


def _draws(probs, class_names):
    """0.0, the largest draw below 1.0, and for each running sum the draws
    within 3 ulps of ``running / total``, among them any with ``u * total``
    equal to it."""
    total = sum(probs.values())
    draws = {0.0, math.nextafter(1.0, 0.0), 0.5}
    for r in _running(probs, class_names):
        up = down = r / total
        draws.add(up)
        for _ in range(3):
            up, down = math.nextafter(up, 2.0), math.nextafter(down, -1.0)
            draws.update((up, down))
    return sorted(d for d in draws if 0.0 <= d < 1.0)


def _check(u, o, obs, draw, probs):
    want = reference_class(probs, obs.class_names, draw)
    assert u.observe(o, obs, FixedStream([draw])) == want
    assert u.trace[-1].probability == probs[want]


@settings(max_examples=200, deadline=None)
@given(one_subsystem_cases())
def test_the_drawn_class_is_the_class_loops(case):
    state, sub, obs = case
    probe = engine.Universe(state)
    probs = probe.branch_probabilities(probe.register_observer("o"), obs)
    draws = _draws(probs, obs.class_names)
    whole = Observable(sub, {"all": sub.labels}, name="whole")
    table, carry_table = engine._AnswerTable(), engine._AnswerTable()
    plain = engine.Universe(state)
    for k, draw in enumerate(draws):
        _check(plain, plain.register_observer(f"o{k}"), obs, draw, probs)
        shared = engine.Universe(state, _answers=table)
        _check(shared, shared.register_observer("o"), obs, draw, probs)
        for answers in (None, carry_table):
            carried = engine.Universe(state, _answers=answers)
            o = carried.register_observer("o")
            # The split is built at the root; two observations of a fact
            # that keeps the branch whole carry it down to the node below.
            carried.branch_probabilities(o, obs)
            force_observe(carried, o, whole, "all")
            force_observe(carried, o, whole, "all")
            _check(carried, o, obs, draw, probs)

