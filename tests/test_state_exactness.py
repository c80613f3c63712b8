"""``tensor`` and ``premeasure`` build their results in one pass.

Each is compared here with the two-pass build it replaced, written out
below from the public API: the same terms in the same order, amplitudes
equal bit for bit (by ``float.hex``), and the same error with the same
message. States are built with ``StateVector`` directly, so they may be
unnormalised and hold tiny amplitudes and signed zeros.
"""
import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hangon import (
    Observable,
    PointerNotReady,
    StateVector,
    Subsystem,
    SubsystemClash,
    UnknownLabel,
    UnknownOutcome,
    label_observable,
    make_state,
    premeasure,
    tensor,
)
from hangon.states import PRUNE_THRESHOLD, _norm_squared


def _two_pass_tensor(a, b):
    overlap = {s.name for s in a.subsystems} & {s.name for s in b.subsystems}
    if overlap:
        raise SubsystemClash(f"subsystems {sorted(overlap)!r} present in both factors")
    combined = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            combined[ka + kb] = va * vb
    kept = {k: v for k, v in combined.items() if (v.real * v.real + v.imag * v.imag) >= PRUNE_THRESHOLD}
    return StateVector(a.subsystems + b.subsystems, kept)


def _two_pass_premeasure(s, system_obs, pointer, correlation):
    """Readiness checked over every term first, then the rewrite."""
    sys_i = s.subsystem_index(system_obs.subsystem.name)
    ptr_i = s.subsystem_index(pointer.name)
    pointer_labels = {labels[ptr_i] for labels in s.terms}
    ready = pointer.labels[0]
    if pointer_labels != {ready}:
        raise PointerNotReady(
            f"pointer {pointer.name!r} is in labels {sorted(pointer_labels)!r}, "
            f"expected only its ready label {ready!r}"
        )
    rewritten = {}
    for labels, a in s.terms.items():
        cls = system_obs.class_of(labels[sys_i])
        if cls not in correlation:
            raise UnknownOutcome(f"correlation does not cover outcome class {cls!r} (it has support)")
        new_labels = labels[:ptr_i] + (correlation[cls],) + labels[ptr_i + 1 :]
        rewritten[new_labels] = rewritten.get(new_labels, 0j) + a
    return StateVector(s.subsystems, rewritten)


def _bits(s):
    return [(k, a.real.hex(), a.imag.hex()) for k, a in s.terms.items()]


def _outcome(f, *args):
    """``(bits, subsystems)`` of f's result, or its error's type and text."""
    try:
        out = f(*args)
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return type(e), str(e)
    return _bits(out), out.subsystems


# Moduli around the pruning floor (squares near 1e-30), signed zeros and a
# subnormal, besides ordinary values.
_parts = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-15, -1.1e-15, 3e-16, 1e-8, 5e-324]),
)


@st.composite
def raw_states(draw, prefix, pointer=None):
    """An unnormalised state over 1-2 subsystems named ``prefix0``...; with
    a pointer, that subsystem comes last and each term's pointer label is
    mostly its ready label."""
    subs = [
        Subsystem(f"{prefix}{i}", tuple(f"l{j}" for j in range(draw(st.integers(2, 3)))))
        for i in range(draw(st.integers(1, 2)))
    ]
    keys = list(itertools.product(*(s.labels for s in subs)))
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys), unique=True))
    if pointer is not None:
        subs.append(pointer)
        fired = st.sampled_from(pointer.labels[1:])
        chosen = [k + (pointer.labels[0] if draw(st.integers(0, 5)) else draw(fired),) for k in chosen]
    return StateVector(subs, {k: complex(draw(_parts), draw(_parts)) for k in chosen})


@settings(max_examples=150, deadline=None)
@given(raw_states("s"), st.sampled_from(["s", "t"]), st.data())
def test_tensor_equals_the_two_pass_build(a, b_prefix, data):
    b = data.draw(raw_states(b_prefix), label="b")
    new, old = _outcome(tensor, a, b), _outcome(_two_pass_tensor, a, b)
    assert new == old
    if b_prefix == "t":
        product = tensor(a, b)
        assert all(abs(v) ** 2 >= PRUNE_THRESHOLD * (1 - 1e-12) for v in product.terms.values())
        assert [product.subsystem_index(s.name) for s in product.subsystems] == list(range(len(product.subsystems)))


def test_tensor_prunes_tiny_products():
    # Each factor keeps 1e-14 (squared, 1e-28); their product squares to 1e-56.
    a = StateVector([Subsystem("a", ("0", "1"))], {("0",): 1e-14 + 0j, ("1",): 1.0 + 0j})
    b = StateVector([Subsystem("b", ("0", "1"))], {("0",): 1e-14j, ("1",): 1.0 + 0j})
    assert list(tensor(a, b).terms) == [("0", "1"), ("1", "0"), ("1", "1")]


def test_tensor_names_the_shared_subsystems():
    a = StateVector([Subsystem("x", ("0", "1")), Subsystem("y", ("0", "1"))], {("0", "0"): 1.0})
    b = StateVector([Subsystem("y", ("0", "1")), Subsystem("x", ("0", "1"))], {("0", "0"): 1.0})
    with pytest.raises(SubsystemClash, match=r"^subsystems \['x', 'y'\] present in both factors$"):
        tensor(a, b)


_POINTER = Subsystem("ptr", ("ready", "r0", "r1", "r2"))


@settings(max_examples=200, deadline=None)
@given(raw_states("s", pointer=_POINTER), st.booleans(), st.booleans(), st.data())
def test_premeasure_equals_the_two_pass_build(s, degenerate, norm_known, data):
    sub = data.draw(st.sampled_from(s.subsystems[:-1]), label="system")
    if degenerate and len(sub.labels) > 2:
        obs = Observable(sub, {"merged": sub.labels[:2], "rest": sub.labels[2:]})
    else:
        obs = label_observable(sub)
    classes = data.draw(st.lists(st.sampled_from(obs.class_names), unique=True, min_size=1), label="mapped")
    targets = data.draw(st.permutations(_POINTER.labels), label="targets")
    correlation = dict(zip(classes, targets))
    if norm_known:
        s.norm_squared()
    before = _bits(s)
    assert _outcome(premeasure, s, obs, _POINTER, correlation) == _outcome(
        _two_pass_premeasure, s, obs, _POINTER, correlation
    )
    assert _bits(s) == before
    try:
        out = premeasure(s, obs, _POINTER, correlation)
    except (PointerNotReady, UnknownOutcome):
        return
    # The squared norm is carried over, and it is that of the new terms.
    assert (out._norm2 is None) == (not norm_known)
    assert out.norm_squared().hex() == _norm_squared(out.terms).hex()


def test_a_partly_fired_pointer_is_named_with_its_labels():
    spin = Subsystem("spin", ("+", "-"))
    needle = Subsystem("needle", ("ready", "up", "down"))
    s = StateVector([spin, needle], {("+", "ready"): 0.6 + 0j, ("-", "down"): 0.8 + 0j})
    with pytest.raises(PointerNotReady) as caught:
        premeasure(s, label_observable(spin), needle, {"+": "up", "-": "down"})
    assert str(caught.value) == (
        "pointer 'needle' is in labels ['down', 'ready'], expected only its ready label 'ready'"
    )


def test_an_unfired_pointer_on_a_normalised_state_keeps_its_norm():
    spin = Subsystem("spin", ("+", "-"))
    needle = Subsystem("needle", ("ready", "up", "down"))
    s = make_state([spin, needle], [(("+", "ready"), 0.6), (("-", "ready"), -0.8j)])
    out = premeasure(s, label_observable(spin), needle, {"+": "up", "-": "down"})
    assert out._norm2 is None
    s.norm_squared()
    out = premeasure(s, label_observable(spin), needle, {"+": "up", "-": "down"})
    assert out._norm2 == s.norm_squared() == math.fsum(abs(a) ** 2 for a in out.terms.values())


@settings(max_examples=100, deadline=None)
@given(raw_states("s", pointer=_POINTER), st.data())
def test_a_kept_pointer_map_gives_what_the_checks_give(s, data):
    """One observable premeasures several times with equal correlations in
    fresh dicts, as every fresh universe's ``entangle_step`` does; every
    call gives the two-pass build's terms or its error, refusals included.
    A correlation whose items cannot be hashed is checked as before."""
    obs = label_observable(data.draw(st.sampled_from(s.subsystems[:-1]), label="system"))
    classes = data.draw(st.lists(st.sampled_from(obs.class_names), unique=True, min_size=1), label="mapped")
    targets = data.draw(st.permutations(_POINTER.labels), label="targets")
    if data.draw(st.booleans(), label="bad label"):
        targets[0] = "nowhere"
    want = _outcome(_two_pass_premeasure_checked, s, obs, _POINTER, dict(zip(classes, targets)))
    for _ in range(3):
        assert _outcome(premeasure, s, obs, _POINTER, dict(zip(classes, targets))) == want
    unhashable = {classes[0]: [targets[0]]}
    assert _outcome(premeasure, s, obs, _POINTER, unhashable) == (
        UnknownLabel, f"label {[targets[0]]!r} not declared on pointer 'ptr'"
    )


def _two_pass_premeasure_checked(s, system_obs, pointer, correlation):
    """The correlation checks that come before the two-pass build."""
    for cls, label in correlation.items():
        if label not in pointer.labels:
            raise UnknownLabel(f"label {label!r} not declared on pointer {pointer.name!r}")
    return _two_pass_premeasure(s, system_obs, pointer, correlation)


def test_a_kept_pointer_map_keeps_no_state_and_no_stale_pointer():
    """The kept map holds its pointer, so a new pointer never takes the id
    of one whose map is kept: a pointer that lacks a label is refused each
    time. Neither the input state nor the result gains a reference, and
    the number of kept maps stays bounded."""
    spin = Subsystem("spin", ("+", "-"))
    s = make_state([spin, Subsystem("p", ("ready", "up", "down"))], [(("+", "ready"), 0.6), (("-", "ready"), 0.8)])
    obs = label_observable(spin)
    refs = sys.getrefcount(s)
    for _ in range(200):
        out = premeasure(s, obs, Subsystem("p", ("ready", "up", "down")), {"+": "up", "-": "down"})
        assert sys.getrefcount(out) == 2
        with pytest.raises(UnknownLabel, match="'up' not declared"):
            premeasure(s, obs, Subsystem("p", ("ready", "left", "right")), {"+": "up", "-": "down"})
    assert sys.getrefcount(s) == refs
    assert len(obs._pointer_maps) <= 64
