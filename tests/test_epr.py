"""EPR singlet runs and the partially determining pair."""
import math

import pytest

from hangon import ConfigError, Subsystem, create_universe, make_state, outcome_probability, tensor
from hangon.rng import RngStream
from hangon.scenarios import (
    ORDERS,
    build_epr_universe,
    epr_joint_distribution,
    partial_pair_joint_distribution,
    partial_pair_state,
    run_epr,
    run_partial_pair,
    singlet_state,
)
from hangon.scenarios import epr as epr_module
from hangon.scenarios.epr import (
    _singlet_with_record,
    a_spin,
    b_spin,
    first_observable,
    record_observable,
    second_observable,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def hex_terms(state):
    """Every amplitude, in stored order, by the bits of its two parts."""
    return [(k, v.real.hex(), v.imag.hex()) for k, v in state.terms.items()]


def fresh_singlet():
    spins = ("+", "-")
    return make_state(
        [Subsystem("A", spins), Subsystem("B", spins)],
        [(("+", "-"), INV_SQRT2), (("-", "+"), -INV_SQRT2)],
    )


def fresh_ready_record():
    return make_state([Subsystem("bob_record", ("ready", "+", "-"))], [(("ready",), 1.0)])


class TestSinglet:
    def test_amplitudes(self):
        s = singlet_state()
        assert abs(s.amplitude(("+", "-")) - INV_SQRT2) < 1e-15
        assert abs(s.amplitude(("-", "+")) + INV_SQRT2) < 1e-15

    def test_universe_structure(self):
        u = build_epr_universe()
        assert tuple(sub.name for sub in u.subsystems) == ("A", "B")
        assert u.clock == 0

    def test_detector_probabilities(self):
        s = singlet_state()
        for outcome in ("+", "-"):
            assert abs(outcome_probability(s, a_spin(), outcome) - 0.5) < 1e-12

    def test_anticorrelation_after_first_outcome(self):
        u = build_epr_universe()
        o = u.register_observer("alice")
        rng = RngStream(4)
        mine = u.observe(o, a_spin(), rng)
        probs = u.branch_probabilities(o, b_spin())
        assert probs[{"+": "-", "-": "+"}[mine]] == pytest.approx(1.0, abs=1e-12)


class TestSharedStates:
    """The singlet and the record's ready state are built once per process;
    the with-record product is built per call."""

    def test_the_same_singlet_on_every_call(self):
        assert singlet_state() is singlet_state()
        assert epr_module._ready_record() is epr_module._ready_record()

    @pytest.mark.parametrize(
        "cached, fresh",
        [(singlet_state, fresh_singlet), (epr_module._ready_record, fresh_ready_record)],
        ids=["singlet", "ready-record"],
    )
    def test_shared_state_equals_a_fresh_one(self, cached, fresh):
        s, f = cached(), fresh()
        assert s is not f
        assert s.subsystems == f.subsystems
        assert hex_terms(s) == hex_terms(f)

    def test_with_record_is_a_new_product_on_each_call(self):
        first, second = _singlet_with_record(), _singlet_with_record()
        assert first is not second
        want = tensor(fresh_singlet(), fresh_ready_record())
        for s in (first, second):
            assert s.subsystems == want.subsystems
            assert hex_terms(s) == hex_terms(want)


class TestRunEpr:
    @pytest.mark.parametrize("order", ORDERS)
    def test_no_same_sign_outcomes(self, order):
        run = run_epr(order, 2000, seed=9)
        assert run.same_sign_count == 0
        assert run.counts[("+", "-")] + run.counts[("-", "+")] == 2000

    @pytest.mark.parametrize("order", ORDERS)
    def test_analytic_joint(self, order):
        joint = epr_joint_distribution(order)
        assert joint[("+", "-")] == pytest.approx(0.5, abs=1e-12)
        assert joint[("-", "+")] == pytest.approx(0.5, abs=1e-12)
        assert joint[("+", "+")] == 0.0
        assert joint[("-", "-")] == 0.0

    def test_orders_agree(self):
        a = epr_joint_distribution("alice_first")
        b = epr_joint_distribution("bob_record_first")
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12)

    def test_single_run_is_anticorrelated(self):
        run = run_epr("alice_first", 1, seed=0)
        assert sum(run.counts.values()) == 1
        assert run.counts[("+", "-")] + run.counts[("-", "+")] == 1

    def test_reply_after_plus_is_always_minus(self):
        run = run_epr("bob_record_first", 3000, seed=5)
        assert run.counts[("+", "+")] == 0
        assert run.counts[("-", "-")] == 0

    def test_balanced_frequencies(self):
        run = run_epr("bob_record_first", 10_000, seed=6)
        frac = run.counts[("+", "-")] / 10_000
        se = math.sqrt(0.25 / 10_000)
        assert abs(frac - 0.5) < 3 * se

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError):
            run_epr("meta_observer", 10, seed=1)


class TestPartialPair:
    def test_state_support(self):
        s = partial_pair_state()
        assert s.term_count() == 3
        assert s.amplitude(("Y", "b")) == 0j

    def test_analytic_marginals_and_conditionals(self):
        u = create_universe(partial_pair_state())
        o = u.register_observer("alice")
        probs = u.branch_probabilities(o, first_observable())
        assert probs["X"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert probs["Y"] == pytest.approx(1.0 / 3.0, abs=1e-12)

        joint = partial_pair_joint_distribution()
        assert joint[("X", "a")] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert joint[("X", "b")] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert joint[("Y", "a")] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert joint[("Y", "b")] == 0.0

    def test_conditional_after_y_is_certain(self):
        from hangon.engine import force_observe

        u = create_universe(partial_pair_state())
        o = u.register_observer("alice")
        force_observe(u, o, first_observable(), "Y")
        probs = u.branch_probabilities(o, second_observable())
        assert probs["a"] == pytest.approx(1.0, abs=1e-12)
        assert probs["b"] == 0.0

    def test_run_counts(self):
        run = run_partial_pair(6000, seed=3)
        assert run.counts[("Y", "b")] == 0
        total = sum(run.counts.values())
        assert total == 6000
        x_frac = (run.counts[("X", "a")] + run.counts[("X", "b")]) / total
        se = math.sqrt((2 / 3) * (1 / 3) / total)
        assert abs(x_frac - 2 / 3) < 3 * se

    def test_record_observable_covers_ready(self):
        obs = record_observable()
        assert set(obs.class_names) == {"ready", "+", "-"}


def test_sampled_counts_golden():
    """Frozen tallies for one seed: the draws, their order and the outcome
    rule are all part of the reproducibility contract."""
    want = {("+", "+"): 0, ("+", "-"): 519, ("-", "+"): 481, ("-", "-"): 0}
    for order in ORDERS:
        assert list(run_epr(order, 1000, 3).counts.items()) == list(want.items())
    pair = {("X", "a"): 316, ("X", "b"): 358, ("Y", "a"): 326, ("Y", "b"): 0}
    assert list(run_partial_pair(1000, 3).counts.items()) == list(pair.items())
