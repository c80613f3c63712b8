"""Past-event narratives: truth transitions and trace exports."""
import json

import pytest

from hangon import Proposition, Truth
from hangon.scenarios import run_empty_trace, run_eraser_trace, run_needle_narrative
from hangon.scenarios.narrative import MONDAY_NOON, SUNDAY_ELEVEN


class TestNeedleNarrative:
    def test_indefinite_before_true_after(self):
        story = run_needle_narrative(seed=5)
        prop = story.needle_proposition()
        for t in range(0, MONDAY_NOON):
            assert story.ledger.truth_value(prop, t) is Truth.INDEFINITE
        for t in range(story.t_complete, story.t_complete + 10):
            assert story.ledger.truth_value(prop, t) is Truth.TRUE

    def test_rival_needle_position_becomes_false(self):
        story = run_needle_narrative(seed=5)
        rival = "down" if story.needle_outcome == "up" else "up"
        prop = Proposition("needle", rival, SUNDAY_ELEVEN)
        assert story.ledger.truth_value(prop, MONDAY_NOON - 1) is Truth.INDEFINITE
        assert story.ledger.truth_value(prop, story.t_complete + 1) is Truth.FALSE

    def test_facts_dated_sunday_determined_monday(self):
        story = run_needle_narrative(seed=5)
        t_det = story.ledger.determination_time(story.needle_proposition())
        assert t_det is not None
        assert t_det >= MONDAY_NOON > SUNDAY_ELEVEN

    def test_heard_record_matches_branch(self):
        for seed in range(12):
            story = run_needle_narrative(seed=seed)
            expected = "saw_up" if story.needle_outcome == "up" else "saw_down"
            assert story.heard == expected
            assert story.spin_outcome == ("+" if story.needle_outcome == "up" else "-")

    def test_outcome_frequencies_follow_amplitudes(self):
        ups = sum(run_needle_narrative(seed=s).needle_outcome == "up" for s in range(300))
        # amplitude 0.6 on "+": probability 0.36, give or take 3 sigma.
        assert abs(ups / 300 - 0.36) < 3 * (0.36 * 0.64 / 300) ** 0.5

    def test_trace_is_exportable(self):
        story = run_needle_narrative(seed=5)
        lines = story.universe.trace_json().splitlines()
        assert len(lines) == 3  # record, needle, spin observations
        docs = [json.loads(l) for l in lines]
        assert docs[0]["observable"] == "watcher_record"
        assert docs[0]["clock"] == MONDAY_NOON
        assert all(d["observer"] == "alice" for d in docs)


class TestEraserTrace:
    def test_record_indefinite_until_asked(self):
        story = run_eraser_trace(seed=7)
        prop = story.record_proposition()
        for t in range(0, story.t_asked):
            assert story.ledger.truth_value(prop, t) is Truth.INDEFINITE
        assert story.ledger.truth_value(prop, story.t_asked) is Truth.TRUE

    def test_d4_branch_forces_upper_reply(self):
        for seed in range(30):
            story = run_eraser_trace(seed=seed)
            if story.detector_outcome == "D4":
                assert story.reply == "U"
            elif story.detector_outcome == "D3":
                assert story.reply == "L"

    def test_trace_has_two_observations(self):
        story = run_eraser_trace(seed=7)
        lines = story.universe.trace_json().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(l) for l in lines)
        assert first["observable"] == "detector"
        assert second["observable"] == "signal_record"
        assert second["clock"] == story.t_asked


class TestEmptyTrace:
    def test_root_only(self):
        u = run_empty_trace()
        assert u.trace_json() == ""
        assert u.clock == 0
        assert u.root.parent is None


def test_needle_trace_golden():
    # Frozen bytes for one seed: the trace format and the sampling stream are
    # both part of the reproducibility contract.
    story = run_needle_narrative(seed=5)
    assert story.universe.trace_json() == (
        '{"observer":"alice","clock":30,"observable":"watcher_record",'
        '"outcome":"saw_down","probability":0.6400000000000001}\n'
        '{"observer":"alice","clock":31,"observable":"needle",'
        '"outcome":"down","probability":1.0}\n'
        '{"observer":"alice","clock":32,"observable":"spin",'
        '"outcome":"-","probability":1.0}'
    )
    assert story.ledger.to_json_lines() == (
        '{"observer":"alice","subsystem":"watcher","outcome":"saw_down",'
        '"t_happened":30,"t_determined":30}\n'
        '{"observer":"alice","subsystem":"needle","outcome":"down",'
        '"t_happened":10,"t_determined":31}\n'
        '{"observer":"alice","subsystem":"spin","outcome":"-",'
        '"t_happened":10,"t_determined":32}'
    )


@pytest.mark.parametrize(
    "bs_present, detector_probability", [(True, "0.2500000000000001"), (False, "0.25")]
)
def test_eraser_trace_golden(bs_present, detector_probability):
    # Frozen bytes for one seed, with the beam splitter in and out.
    story = run_eraser_trace(seed=5, bs_present=bs_present)
    assert story.universe.trace_json() == (
        '{"observer":"alice","clock":10,"observable":"detector",'
        f'"outcome":"D3","probability":{detector_probability}}}\n'
        '{"observer":"alice","clock":20,"observable":"signal_record",'
        '"outcome":"L","probability":1.0}'
    )
    assert story.ledger.to_json_lines() == (
        '{"observer":"alice","subsystem":"detector","outcome":"D3",'
        '"t_happened":10,"t_determined":10}\n'
        '{"observer":"alice","subsystem":"signal_record","outcome":"L",'
        '"t_happened":0,"t_determined":20}'
    )
    assert story.universe.clock == 21
