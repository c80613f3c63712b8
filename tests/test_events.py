"""Event ledger: append ordering, three-valued truth, monotonicity."""
import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hangon import EventLedger, OutOfOrderDetermination, Proposition, Truth
from hangon.events import _proposition
from hangon.rng import RngStream

SUNDAY_11 = 10
MONDAY_1130 = 29
MONDAY_NOON = 30


def test_record_stores_both_times():
    ledger = EventLedger("alice")
    prop = Proposition("needle", "up", t_happened=SUNDAY_11)
    ledger.record(prop, t_determined=MONDAY_NOON)
    rec = ledger.records[0]
    assert rec.proposition.t_happened == SUNDAY_11
    assert rec.t_determined == MONDAY_NOON
    assert rec.observer == "alice"


def test_fast_built_proposition_is_a_proposition():
    """``observe`` builds its Propositions without ``__init__``; they are
    the same class and compare, hash, print and refuse writes alike."""
    fast, plain = _proposition("needle", "up", 3), Proposition("needle", "up", 3)
    assert type(fast) is Proposition
    assert fast == plain and hash(fast) == hash(plain) and repr(fast) == repr(plain)
    assert fast != _proposition("needle", "up", 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.outcome = "down"
    assert dataclasses.asdict(fast) == {"subsystem": "needle", "outcome": "up", "t_happened": 3}


def test_immediate_event():
    ledger = EventLedger("alice")
    ledger.record(Proposition("spin", "+", t_happened=5), t_determined=5)
    assert ledger.truth_value(Proposition("spin", "+", 5), 5) is Truth.TRUE


def test_out_of_order_determination():
    ledger = EventLedger("alice")
    ledger.record(Proposition("spin", "+", 5), t_determined=5)
    with pytest.raises(OutOfOrderDetermination):
        ledger.record(Proposition("spin", "+", 1), t_determined=4)


def test_truth_becomes_defined_at_determination():
    ledger = EventLedger("alice")
    prop_up = Proposition("needle", "up", SUNDAY_11)
    ledger.record(prop_up, t_determined=MONDAY_NOON)
    # Not yet true half an hour before the determination.
    assert ledger.truth_value(prop_up, MONDAY_1130) is Truth.INDEFINITE
    assert ledger.truth_value(prop_up, MONDAY_NOON) is Truth.TRUE
    assert ledger.truth_value(prop_up, MONDAY_NOON + 1) is Truth.TRUE
    # The rival outcome for the same fact slot is now false.
    prop_down = Proposition("needle", "down", SUNDAY_11)
    assert ledger.truth_value(prop_down, MONDAY_NOON + 1) is Truth.FALSE
    assert ledger.truth_value(prop_down, MONDAY_1130) is Truth.INDEFINITE


def test_fresh_ledger_everything_indefinite():
    ledger = EventLedger("alice")
    for t in (0, 5, 100):
        assert ledger.truth_value(Proposition("x", "a", 0), t) is Truth.INDEFINITE


def test_determination_time_queries():
    ledger = EventLedger("alice")
    prop = Proposition("needle", "up", SUNDAY_11)
    assert ledger.determination_time(prop) is None
    ledger.record(prop, t_determined=MONDAY_NOON)
    ledger.record(prop, t_determined=MONDAY_NOON + 5)  # re-asserted later
    assert ledger.determination_time(prop) == MONDAY_NOON
    assert ledger.determination_time(Proposition("needle", "down", SUNDAY_11)) is None


def test_slot_keys_compare_as_a_pair_would():
    """Happening times that compare equal name one slot, as they would in a
    ``(subsystem, t_happened)`` key; an unhashable time is refused, on a
    subsystem the ledger has recorded or not."""
    ledger = EventLedger("alice")
    ledger.record(Proposition("needle", "up", 1), t_determined=2)
    for t_hap in (1, True, 1.0):
        assert ledger.truth_value(Proposition("needle", "up", t_hap), 2) is Truth.TRUE
        assert ledger.truth_value(Proposition("needle", "down", t_hap), 2) is Truth.FALSE
        assert ledger.determination_time(Proposition("needle", "up", t_hap)) == 2
    assert ledger.truth_value(Proposition("needle", "up", 0), 2) is Truth.INDEFINITE
    for sub in ("needle", "never"):
        with pytest.raises(TypeError):
            ledger.truth_value(Proposition(sub, "up", [1]), 2)
        with pytest.raises(TypeError):
            ledger.determination_time(Proposition(sub, "up", [1]))


def test_json_lines_export():
    ledger = EventLedger("alice")
    ledger.record(Proposition("needle", "up", SUNDAY_11), t_determined=MONDAY_NOON)
    line = ledger.to_json_lines()
    assert line == (
        '{"observer":"alice","subsystem":"needle","outcome":"up",'
        '"t_happened":10,"t_determined":30}'
    )


def test_truth_monotone_over_random_schedules():
    # Once a proposition is True (or False) it stays that way at all later
    # query times, over randomized consistent recording schedules.
    rng = RngStream(99)
    for trial in range(200):
        ledger = EventLedger("o")
        chosen: dict[tuple[str, int], str] = {}
        t_det = 0
        for _ in range(8):
            sub = f"s{int(rng.random() * 3)}"
            t_hap = int(rng.random() * 20)
            slot = (sub, t_hap)
            outcome = chosen.setdefault(slot, f"v{int(rng.random() * 3)}")
            t_det += int(rng.random() * 3)
            ledger.record(Proposition(sub, outcome, t_hap), t_det)
        for (sub, t_hap), outcome in chosen.items():
            for rival in ("v0", "v1", "v2", "v_never"):
                prop = Proposition(sub, rival, t_hap)
                values = [ledger.truth_value(prop, t) for t in range(0, t_det + 3)]
                seen_defined = False
                for prev, cur in zip(values, values[1:]):
                    if prev is not Truth.INDEFINITE:
                        seen_defined = True
                        assert cur is prev
                if seen_defined:
                    assert values[-1] is not Truth.INDEFINITE


def _scan_truth(records, proposition, query_time):
    """Reference rule: scan the records in determination order."""
    saw_rival = False
    for rec in records:
        if rec.t_determined > query_time:
            break
        p = rec.proposition
        if p.subsystem == proposition.subsystem and p.t_happened == proposition.t_happened:
            if p.outcome == proposition.outcome:
                return Truth.TRUE
            saw_rival = True
    return Truth.FALSE if saw_rival else Truth.INDEFINITE


def _scan_determination(records, proposition):
    return next((rec.t_determined for rec in records if rec.proposition == proposition), None)


SUBSYSTEMS = ("s0", "s1")
OUTCOMES = ("l0", "l1", "merged")
# One op is (subsystem, outcome, t_happened, determination step) for a
# record, or a round of queries between records, named by the query that
# runs first and so catches the index up.
_ops = st.lists(
    st.one_of(
        st.sampled_from(("truth", "determination")),
        st.tuples(
            st.sampled_from(SUBSYSTEMS),
            st.sampled_from(OUTCOMES),
            st.integers(0, 2),
            st.integers(0, 2),
        ),
    ),
    max_size=25,
)


def _assert_matches_scan(ledger, first):
    records = ledger.records
    times = sorted({-1} | {r.t_determined + d for r in records for d in (-1, 0, 1)})
    # No record names "s_never", "never" or t_happened 3, so each query
    # round also misses at the subsystem, the happening time and the outcome.
    props = [
        Proposition(sub, outcome, t_hap)
        for sub in SUBSYSTEMS + ("s_never",)
        for t_hap in range(4)
        for outcome in OUTCOMES + ("never",)
    ]
    if first == "truth":
        truth = [ledger.truth_value(prop, t) for prop in props for t in times]
    determined = [ledger.determination_time(prop) for prop in props]
    if first == "determination":
        truth = [ledger.truth_value(prop, t) for prop in props for t in times]
    assert truth == [_scan_truth(records, prop, t) for prop in props for t in times]
    assert determined == [_scan_determination(records, prop) for prop in props]


# The degenerate revert: a coarse class "merged" is recorded for the slot,
# then "l0" for the same slot. l0 reads FALSE and then TRUE, as the scan does.
@example([("s0", "merged", 0, 0), "truth", ("s0", "l0", 0, 1)])
@settings(max_examples=300, deadline=None)
@given(_ops)
def test_slot_index_equals_linear_scan(ops):
    ledger = EventLedger("o")
    t_det = 0
    for op in ops:
        if isinstance(op, str):
            _assert_matches_scan(ledger, op)
            continue
        sub, outcome, t_hap, step = op
        t_det += step
        ledger.record(Proposition(sub, outcome, t_hap), t_det)
    _assert_matches_scan(ledger, "truth")
    _assert_matches_scan(ledger, "determination")
