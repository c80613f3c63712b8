"""State algebra: construction, tensor, probabilities, projection,
premeasurement, and the canonical JSON form."""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hangon import (
    EmptyBranch,
    Observable,
    PointerNotReady,
    StateVector,
    SubsystemClash,
    Subsystem,
    UnknownLabel,
    UnknownOutcome,
    ZeroNorm,
    label_observable,
    make_state,
    outcome_probability,
    premeasure,
    project,
    state_from_canonical_json,
    tensor,
    to_canonical_json,
)
from hangon.states import NORM_TOL

INV_SQRT2 = 1.0 / math.sqrt(2.0)

A = Subsystem("A", ("+", "-"))
B = Subsystem("B", ("+", "-"))
A_SPIN = label_observable(A, name="A_spin")
B_SPIN = label_observable(B, name="B_spin")


def singlet() -> StateVector:
    return make_state(
        [A, B],
        [(("+", "-"), INV_SQRT2), (("-", "+"), -INV_SQRT2)],
    )


class TestMakeState:
    def test_singlet_amplitudes(self):
        s = singlet()
        assert s.term_count() == 2
        assert abs(s.amplitude(("+", "-")) - INV_SQRT2) < 1e-15
        assert abs(s.amplitude(("-", "+")) + INV_SQRT2) < 1e-15
        for key in (("+", "-"), ("-", "+")):
            assert abs(abs(s.amplitude(key)) ** 2 - 0.5) < 1e-12

    def test_single_term_unit_state(self):
        sub = Subsystem("x", ("+", "-"))
        s = make_state([sub], [(("+",), 1.0)])
        assert s.amplitude(("+",)) == 1.0
        assert abs(s.norm_squared() - 1.0) < 1e-12

    def test_three_four_five_normalization(self):
        sub = Subsystem("x", ("a", "b"))
        s = make_state([sub], [(("a",), 3.0), (("b",), 4.0)])
        assert abs(s.amplitude(("a",)) - 0.6) < 1e-15
        assert abs(s.amplitude(("b",)) - 0.8) < 1e-15

    def test_duplicates_summed_before_normalization(self):
        sub = Subsystem("x", ("a", "b"))
        s = make_state([sub], [(("a",), 1.0), (("a",), 1.0), (("b",), 2.0)])
        assert abs(s.amplitude(("a",)) - INV_SQRT2) < 1e-15

    def test_cancellation_raises_zero_norm(self):
        sub = Subsystem("x", ("a", "b"))
        with pytest.raises(ZeroNorm):
            make_state([sub], [(("a",), 1.0), (("a",), -1.0)])

    def test_unknown_label_rejected(self):
        sub = Subsystem("x", ("a", "b"))
        with pytest.raises(UnknownLabel):
            make_state([sub], [(("c",), 1.0)])

    def test_non_finite_amplitude_rejected(self):
        sub = Subsystem("x", ("a", "b"))
        with pytest.raises(ValueError):
            make_state([sub], [(("a",), float("nan"))])

    @staticmethod
    def _assert_unit(s, want_a, want_b):
        assert abs(s.norm_squared() - 1.0) <= NORM_TOL
        assert s.amplitude(("a",)) == pytest.approx(want_a, abs=1e-15)
        assert s.amplitude(("b",)) == pytest.approx(want_b, abs=1e-15)

    def test_squares_that_overflow_still_normalize(self):
        # The squared norm overflows to inf; it must not scale every term to 0.
        sub = Subsystem("x", ("a", "b"))
        self._assert_unit(make_state([sub], [(("a",), 1e200), (("b",), 1e200)]), INV_SQRT2, INV_SQRT2)

    def test_squares_that_underflow_still_normalize(self):
        # Each square underflows to 0; the amplitudes did not cancel.
        sub = Subsystem("x", ("a", "b"))
        self._assert_unit(make_state([sub], [(("a",), 1e-170), (("b",), 1e-170)]), INV_SQRT2, INV_SQRT2)

    def test_subnormal_squares_keep_their_digits(self):
        # Subnormal squares lose digits: the norm read 1.0000111.
        sub = Subsystem("x", ("a", "b"))
        s = make_state([sub], [(("a",), 1e-160), (("b",), 3e-160)])
        self._assert_unit(s, 1 / math.sqrt(10), 3 / math.sqrt(10))

    @pytest.mark.parametrize("amps", [(1e200, 1e200), (1e-170, 1e-170), (1e-160, 3e-160), (1e308, -1e308j)])
    def test_normalized_rescales_out_of_range_norms(self, amps):
        sub = Subsystem("x", ("a", "b"))
        raw = StateVector([sub], {("a",): complex(amps[0]), ("b",): complex(amps[1])})
        unit = raw.normalized()
        assert abs(unit.norm_squared() - 1.0) <= NORM_TOL
        assert unit == make_state([sub], [(("a",), amps[0]), (("b",), amps[1])])

    def test_normalized_state_without_terms_has_zero_norm(self):
        with pytest.raises(ZeroNorm):
            StateVector([Subsystem("x", ("a", "b"))], {}).normalized()


class TestTensor:
    def test_singlet_times_ready_pointer(self):
        ready = Subsystem("bob", ("ready", "+", "-"))
        pointer = make_state([ready], [(("ready",), 1.0)])
        s = tensor(singlet(), pointer)
        assert s.term_count() == 2
        assert len(s.subsystems) == 3
        assert abs(s.norm_squared() - 1.0) < 1e-12

    def test_unit_times_unit(self):
        x = make_state([Subsystem("x", ("0", "1"))], [(("0",), 1.0)])
        y = make_state([Subsystem("y", ("0", "1"))], [(("1",), 1.0)])
        s = tensor(x, y)
        assert s.amplitude(("0", "1")) == 1.0
        assert s.term_count() == 1

    def test_distribution_over_one_factor(self):
        path = Subsystem("path", ("U", "L"))
        ready = Subsystem("p", ("ready", "done"))
        sup = make_state([path], [(("U",), 1.0), (("L",), 1.0)])
        s = tensor(sup, make_state([ready], [(("ready",), 1.0)]))
        assert abs(s.amplitude(("U", "ready")) - INV_SQRT2) < 1e-15
        assert abs(s.amplitude(("L", "ready")) - INV_SQRT2) < 1e-15

    def test_clash_on_shared_name(self):
        with pytest.raises(SubsystemClash):
            tensor(singlet(), make_state([Subsystem("A", ("x", "y"))], [(("x",), 1.0)]))


class TestOutcomeProbability:
    def test_two_branch_momentum_state_is_half(self):
        k = Subsystem("momentum", ("k1", "k2"))
        obs = label_observable(k)
        s = make_state([k], [(("k1",), 1.0), (("k2",), 1.0)])
        assert abs(outcome_probability(s, obs, "k1") - 0.5) < 1e-12
        assert abs(outcome_probability(s, obs, "k2") - 0.5) < 1e-12

    def test_partially_determining_pair_marginal(self):
        # (1/sqrt3)[(X,a) + (X,b) + (Y,a)]: X has weight 2/3.
        sa = Subsystem("first", ("X", "Y"))
        sb = Subsystem("second", ("a", "b"))
        s = make_state(
            [sa, sb],
            [(("X", "a"), 1.0), (("X", "b"), 1.0), (("Y", "a"), 1.0)],
        )
        obs = label_observable(sa)
        assert abs(outcome_probability(s, obs, "X") - 2.0 / 3.0) < 1e-12
        assert abs(outcome_probability(s, obs, "Y") - 1.0 / 3.0) < 1e-12

    def test_eigenstate_certainty(self):
        s = make_state([A], [(("+",), 1.0)])
        assert outcome_probability(s, label_observable(A), "+") == 1.0

    def test_unknown_outcome(self):
        with pytest.raises(UnknownOutcome):
            outcome_probability(singlet(), A_SPIN, "sideways")


class TestProject:
    def test_singlet_plus_branch(self):
        branch = project(singlet(), A_SPIN, "+")
        assert branch.term_count() == 1
        assert abs(branch.norm_squared() - 0.5) < 1e-12
        assert abs(branch.amplitude(("+", "-")) - INV_SQRT2) < 1e-15

    def test_partially_determining_pair_y_branch(self):
        sa = Subsystem("first", ("X", "Y"))
        sb = Subsystem("second", ("a", "b"))
        s = make_state(
            [sa, sb],
            [(("X", "a"), 1.0), (("X", "b"), 1.0), (("Y", "a"), 1.0)],
        )
        branch = project(s, label_observable(sa), "Y")
        assert branch.term_count() == 1
        assert abs(branch.norm_squared() - 1.0 / 3.0) < 1e-12

    def test_idempotent_on_eigenstate(self):
        s = make_state([A], [(("+",), 1.0)])
        assert project(s, label_observable(A), "+") == s

    def test_empty_branch(self):
        s = make_state([A], [(("+",), 1.0)])
        with pytest.raises(EmptyBranch):
            project(s, label_observable(A), "-")

    def test_input_untouched(self):
        s = singlet()
        before = dict(s.terms)
        project(s, A_SPIN, "+")
        assert dict(s.terms) == before


class TestPremeasure:
    def test_pointer_entangles_with_spin(self):
        # (a|+> + b|->)|ready>  ->  a|+>|up> + b|->|down>
        apparatus = Subsystem("needle", ("ready", "up", "down"))
        s = tensor(
            make_state([A], [(("+",), 0.6), (("-",), 0.8)]),
            make_state([apparatus], [(("ready",), 1.0)]),
        )
        out = premeasure(s, A_SPIN, apparatus, {"+": "up", "-": "down"})
        assert abs(out.amplitude(("+", "up")) - 0.6) < 1e-15
        assert abs(out.amplitude(("-", "down")) - 0.8) < 1e-15
        assert out.term_count() == 2
        assert abs(out.norm_squared() - 1.0) < 1e-12

    def test_singlet_with_record_pointer(self):
        # Correlating a record with B turns the singlet into a three-factor
        # entangled state with the same two branches.
        bob = Subsystem("bob", ("ready", "+", "-"))
        s = tensor(singlet(), make_state([bob], [(("ready",), 1.0)]))
        out = premeasure(s, B_SPIN, bob, {"+": "+", "-": "-"})
        assert out.term_count() == 2
        assert abs(out.amplitude(("+", "-", "-")) - INV_SQRT2) < 1e-15
        assert abs(out.amplitude(("-", "+", "+")) + INV_SQRT2) < 1e-15

    def test_eigenstate_input_gives_product(self):
        apparatus = Subsystem("needle", ("ready", "up", "down"))
        s = tensor(
            make_state([A], [(("+",), 1.0)]),
            make_state([apparatus], [(("ready",), 1.0)]),
        )
        out = premeasure(s, A_SPIN, apparatus, {"+": "up", "-": "down"})
        assert out.term_count() == 1
        assert out.amplitude(("+", "up")) == 1.0

    def test_pointer_not_ready(self):
        apparatus = Subsystem("needle", ("ready", "up", "down"))
        s = tensor(
            make_state([A], [(("+",), 0.6), (("-",), 0.8)]),
            make_state([apparatus], [(("ready",), 1.0)]),
        )
        once = premeasure(s, A_SPIN, apparatus, {"+": "up", "-": "down"})
        with pytest.raises(PointerNotReady):
            premeasure(once, A_SPIN, apparatus, {"+": "up", "-": "down"})

    def test_fired_pointer_cannot_be_refired(self):
        # An eigenstate leaves the fired pointer uniform at "up"; it is not
        # ready, so a second premeasurement must not rewrite the record.
        apparatus = Subsystem("needle", ("ready", "up", "down"))
        s = tensor(
            make_state([A], [(("+",), 1.0)]),
            make_state([apparatus], [(("ready",), 1.0)]),
        )
        once = premeasure(s, A_SPIN, apparatus, {"+": "up", "-": "down"})
        assert once.amplitude(("+", "up")) == 1.0
        with pytest.raises(PointerNotReady):
            premeasure(once, A_SPIN, apparatus, {"+": "down", "-": "up"})

    def test_pointer_uniform_off_ready_label_rejected(self):
        apparatus = Subsystem("needle", ("ready", "up", "down"))
        s = tensor(singlet(), make_state([apparatus], [(("down",), 1.0)]))
        with pytest.raises(PointerNotReady):
            premeasure(s, A_SPIN, apparatus, {"+": "up", "-": "down"})

    def test_correlation_must_cover_supported_classes(self):
        apparatus = Subsystem("needle", ("ready", "up", "down"))
        s = tensor(
            make_state([A], [(("+",), 0.6), (("-",), 0.8)]),
            make_state([apparatus], [(("ready",), 1.0)]),
        )
        with pytest.raises(UnknownOutcome):
            premeasure(s, A_SPIN, apparatus, {"+": "up"})

    def test_correlation_may_omit_a_class_without_support(self):
        apparatus = Subsystem("needle", ("ready", "up", "down"))
        s = tensor(
            make_state([A], [(("+",), 1.0)]),
            make_state([apparatus], [(("ready",), 1.0)]),
        )
        out = premeasure(s, A_SPIN, apparatus, {"+": "up"})
        assert out == StateVector(s.subsystems, {("+", "up"): 1.0})

    def test_correlation_must_be_injective(self):
        apparatus = Subsystem("needle", ("ready", "up", "down"))
        s = tensor(
            make_state([A], [(("+",), 0.6), (("-",), 0.8)]),
            make_state([apparatus], [(("ready",), 1.0)]),
        )
        with pytest.raises(ValueError):
            premeasure(s, A_SPIN, apparatus, {"+": "up", "-": "up"})


# Random small states for property checks.
@st.composite
def random_states(draw):
    n_subs = draw(st.integers(min_value=1, max_value=3))
    subs = []
    for i in range(n_subs):
        n_labels = draw(st.integers(min_value=2, max_value=3))
        subs.append(Subsystem(f"s{i}", tuple(f"l{j}" for j in range(n_labels))))
    label_sets = [s.labels for s in subs]

    def all_tuples(sets):
        if not sets:
            return [()]
        rest = all_tuples(sets[1:])
        return [(l,) + r for l in sets[0] for r in rest]

    keys = all_tuples(label_sets)
    amp = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    amps = draw(
        st.lists(st.tuples(amp, amp), min_size=len(keys), max_size=len(keys))
    )
    terms = [(k, complex(re, im)) for k, (re, im) in zip(keys, amps)]
    total = sum(abs(a) ** 2 for _, a in terms)
    if total < 1e-9:
        terms[0] = (terms[0][0], 1.0 + 0j)
    return make_state(subs, terms)


@settings(max_examples=60, deadline=None)
@given(random_states())
def test_normalization_invariant(s):
    assert abs(s.norm_squared() - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(random_states(), st.integers(min_value=0, max_value=2))
def test_born_completeness(s, which):
    sub = s.subsystems[which % len(s.subsystems)]
    obs = label_observable(sub)
    total = sum(outcome_probability(s, obs, c) for c in obs.class_names)
    assert abs(total - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(random_states(), st.integers(min_value=0, max_value=2))
def test_projection_decomposition(s, which):
    sub = s.subsystems[which % len(s.subsystems)]
    obs = label_observable(sub)
    rebuilt = {}
    for c in obs.class_names:
        try:
            piece = project(s, obs, c)
        except EmptyBranch:
            continue
        for k, v in piece.terms.items():
            assert k not in rebuilt
            rebuilt[k] = v
    assert set(rebuilt) == set(s.terms)
    for k, v in s.terms.items():
        assert abs(rebuilt[k] - v) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(random_states(), st.integers(min_value=0, max_value=2))
def test_premeasure_preserves_system_marginals(s, which):
    sub = s.subsystems[which % len(s.subsystems)]
    obs = label_observable(sub)
    pointer = Subsystem("ptr", ("ready",) + tuple(f"rec{j}" for j in range(len(sub.labels))))
    full = tensor(s, make_state([pointer], [(("ready",), 1.0)]))
    correlation = {lab: f"rec{j}" for j, lab in enumerate(sub.labels)}
    after = premeasure(full, obs, pointer, correlation)
    for c in obs.class_names:
        before_p = outcome_probability(full, obs, c)
        after_p = outcome_probability(after, obs, c)
        assert abs(before_p - after_p) <= 1e-12


def _observable(sub, degenerate):
    """The label observable, or one that merges the first two labels."""
    if degenerate:
        classes = {"merged": sub.labels[:2]}
        classes.update({lab: (lab,) for lab in sub.labels[2:]})
        return Observable(sub, classes, name=f"{sub.name}_deg")
    return label_observable(sub)


def _scaled_to_unit(terms):
    n2 = math.fsum(a.real * a.real + a.imag * a.imag for a in terms.values())
    if abs(n2 - 1.0) <= 1e-12:
        return dict(terms)
    scale = 1.0 / math.sqrt(n2)
    return {k: v * scale for k, v in terms.items()}


@settings(max_examples=80, deadline=None)
@given(random_states(), st.integers(min_value=0, max_value=2), st.booleans(), st.data())
def test_derived_states_equal_states_built_from_scratch(s, which, degenerate, data):
    # project, normalized and premeasure build their results from the
    # input's own terms; each must equal the same terms passed through the
    # public constructor, in the same order, and leave the input untouched.
    sub = s.subsystems[which % len(s.subsystems)]
    obs = _observable(sub, degenerate)
    i = s.subsystem_index(sub.name)
    before = list(s.terms.items())

    cls = data.draw(st.sampled_from(obs.class_names))
    kept = {k: v for k, v in s.terms.items() if obs.class_of(k[i]) == cls}
    if kept:
        branch = project(s, obs, cls)
        assert branch == StateVector(s.subsystems, kept)
        assert list(branch.terms) == list(kept)
        unit = branch.normalized()
        expected_unit = _scaled_to_unit(kept)
        assert unit == StateVector(s.subsystems, expected_unit)
        assert list(unit.terms) == list(expected_unit)
        assert list(branch.terms.items()) == list(kept.items())
    else:
        with pytest.raises(EmptyBranch):
            project(s, obs, cls)

    pointer = Subsystem("ptr", ("ready",) + tuple(f"rec{j}" for j in range(len(obs.class_names))))
    full = tensor(s, make_state([pointer], [(("ready",), 1.0)]))
    supported = {obs.class_of(k[i]) for k in s.terms}
    keep_unsupported = data.draw(st.booleans())
    correlation = {
        c: f"rec{j}"
        for j, c in enumerate(obs.class_names)
        if c in supported or keep_unsupported
    }
    full_before = list(full.terms.items())
    after = premeasure(full, obs, pointer, correlation)
    expected = {k[:-1] + (correlation[obs.class_of(k[i])],): v for k, v in full.terms.items()}
    assert after == StateVector(full.subsystems, expected)
    assert list(after.terms) == list(expected)
    assert list(full.terms.items()) == full_before
    assert list(s.terms.items()) == before


@settings(max_examples=40, deadline=None)
@given(random_states(), random_states())
def test_tensor_norm_multiplicative(a, b):
    b_renamed = StateVector(
        tuple(Subsystem("r_" + s.name, s.labels) for s in b.subsystems),
        {k: v for k, v in b.terms.items()},
    )
    prod = tensor(a, b_renamed)
    assert abs(prod.norm_squared() - a.norm_squared() * b_renamed.norm_squared()) <= 1e-12


class TestCanonicalJson:
    def test_format_shape(self):
        sub = Subsystem("x", ("a", "b"))
        s = make_state([sub], [(("a",), 3.0), (("b",), 4.0)])
        text = to_canonical_json(s)
        assert text.startswith('{"subsystems":[{"name":"x","labels":["a","b"]}]')
        # Terms sorted lexicographically by label tuple.
        assert text.index('"labels":["a"]') < text.index('"labels":["b"]')
        # Amplitudes carry 17 significant digits.
        assert '"re":' + format(s.amplitude(("a",)).real, ".17g") in text

    def test_round_trip_exact(self):
        s = singlet()
        again = state_from_canonical_json(to_canonical_json(s))
        assert again == s

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_is_refused(self, part, value):
        text = to_canonical_json(make_state([Subsystem("x", ("a", "b"))], [(("a",), 1.0)]))
        doc = json.loads(text)
        doc["terms"][0][part] = value
        with pytest.raises(ValueError, match="non-finite"):
            state_from_canonical_json(json.dumps(doc))

    def test_term_ordering_is_canonical(self):
        sub = Subsystem("x", ("b", "a"))
        s1 = make_state([sub], [(("b",), 1.0), (("a",), 1.0)])
        s2 = make_state([sub], [(("a",), 1.0), (("b",), 1.0)])
        assert to_canonical_json(s1) == to_canonical_json(s2)
