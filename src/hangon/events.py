"""Per-observer event ledgers with three-valued temporal truth.

A proposition asserts that a subsystem showed some outcome at a happening
time. It stays Indefinite for an observer until one of her observations
determines it; the determination time may be much later than the happening
time, and may even be the first moment the proposition has any truth value
at all. Once True (or False, for a rival outcome of the same fact slot) it
never reverts.

Recording is one list append of a ``(proposition, t_determined)`` pair;
the ``EventRecord``s are built only when ``records`` or ``to_json_lines``
reads the ledger. Each ledger keeps a two-level index, from subsystem to
happening time, that gives each fact slot's first determination and the
first determination of each outcome asserted for it. A query first extends
that index over the records appended since the last query, then answers
with three dict lookups (subsystem, happening time, outcome) and builds no
key, whatever the ledger's length.
"""
from __future__ import annotations

import enum
import json
import operator
from dataclasses import asdict, dataclass

from .errors import OutOfOrderDetermination


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    INDEFINITE = "indefinite"


# ``truth_value`` answers with globals: reading ``Truth.TRUE`` goes through
# the enum's class attribute lookup, several times slower than a global.
_TRUE, _FALSE, _INDEFINITE = Truth.TRUE, Truth.FALSE, Truth.INDEFINITE

# A ledger's slots of a subsystem it has never recorded: read, never written.
# A query looks the happening time up here too, so it hashes that time
# whether or not the subsystem is known, as a ``(subsystem, t_happened)``
# key would.
_NO_SLOTS: dict = {}


@dataclass(frozen=True, slots=True)
class Proposition:
    """One fact slot: (subsystem, happening time) asserted to show an outcome."""

    subsystem: str
    outcome: str
    t_happened: int


# ``Universe.observe`` builds one Proposition per observation. The frozen
# dataclass's ``__init__`` sets each field through ``object.__setattr__``;
# filling the slots through their descriptors builds the same object, equal,
# hashed and printed alike and still frozen, in about a third of the time.
_new_object = object.__new__
_set_subsystem = Proposition.subsystem.__set__
_set_outcome = Proposition.outcome.__set__
_set_t_happened = Proposition.t_happened.__set__


def _proposition(subsystem: str, outcome: str, t_happened: int) -> Proposition:
    """``Proposition(subsystem, outcome, t_happened)``, built without
    ``__init__``; the caller passes values ``__init__`` would store as is."""
    p = _new_object(Proposition)
    _set_subsystem(p, subsystem)
    _set_outcome(p, outcome)
    _set_t_happened(p, t_happened)
    return p


@dataclass(frozen=True, slots=True)
class EventRecord:
    proposition: Proposition
    t_determined: int
    observer: str


class EventLedger:
    """Append-only, per-observer; sorted by determination time.

    ``record`` appends a ``(proposition, t_determined)`` pair and indexes
    nothing. ``_slots`` maps each subsystem to ``{t_happened: (first
    t_determined, {outcome: first t_determined})}``, one entry per fact
    slot, over the first ``_indexed`` records; a query extends it over the
    rest, so a ledger that is never queried never builds it. A query looks
    up the subsystem, then the happening time, then the outcome; it builds
    no ``(subsystem, t_happened)`` key.
    """

    __slots__ = ("observer_id", "_records", "_slots", "_indexed")

    def __init__(self, observer_id: str):
        self.observer_id = observer_id
        self._records: list[tuple[Proposition, int]] = []
        self._slots: dict[str, dict[int, tuple[int, dict[str, int]]]] = {}
        self._indexed = 0

    @property
    def records(self) -> tuple[EventRecord, ...]:
        """The determinations so far, in order, as ``EventRecord``s."""
        observer = self.observer_id
        return tuple(EventRecord(p, t, observer) for p, t in self._records)

    def record(self, proposition: Proposition, t_determined: int) -> None:
        """Append one determination; determination times are integers, not
        bools, and must not decrease."""
        t = t_determined
        if type(t) is not int:
            # ``operator.index`` takes a bool as 0 or 1.
            if type(t) is bool:
                raise TypeError(f"t_determined must be an integer, not {t!r}")
            t = operator.index(t)
        records = self._records
        if records and t < records[-1][1]:
            raise OutOfOrderDetermination(f"t_determined {t} precedes last recorded {records[-1][1]}")
        records.append((proposition, t))

    def _catch_up(self) -> None:
        """Index the records appended since the last query.

        Records arrive in non-decreasing determination time, so the first
        time a slot or an outcome is seen is its earliest determination.
        ``setdefault`` keeps that true when two queries catch up at once; it
        runs only where ``get`` missed, so no record builds a spare dict.
        """
        end = len(self._records)
        slots = self._slots
        for p, t in self._records[self._indexed : end]:
            times = slots.get(p.subsystem)
            if times is None:
                times = slots.setdefault(p.subsystem, {})
            slot = times.get(p.t_happened)
            if slot is None:
                slot = times.setdefault(p.t_happened, (t, {}))
            slot[1].setdefault(p.outcome, t)
        self._indexed = end

    def truth_value(self, proposition: Proposition, query_time: int) -> Truth:
        """Truth of the proposition as of query_time.

        True if a record determined by then asserts it; False if a record
        determined by then asserts a different outcome for the same
        (subsystem, t_happened) slot; Indefinite otherwise.
        """
        if self._indexed < len(self._records):
            self._catch_up()
        slot = self._slots.get(proposition.subsystem, _NO_SLOTS).get(proposition.t_happened)
        if slot is None or slot[0] > query_time:
            return _INDEFINITE
        t = slot[1].get(proposition.outcome)
        return _TRUE if t is not None and t <= query_time else _FALSE

    def determination_time(self, proposition: Proposition) -> int | None:
        """Earliest determination time asserting the proposition, else None."""
        if self._indexed < len(self._records):
            self._catch_up()
        slot = self._slots.get(proposition.subsystem, _NO_SLOTS).get(proposition.t_happened)
        return None if slot is None else slot[1].get(proposition.outcome)

    def to_json_lines(self) -> str:
        """One JSON object per line, in determination order: ``observer``,
        the ``Proposition`` fields, then ``t_determined``."""
        return "\n".join(
            json.dumps(
                {"observer": r.observer, **asdict(r.proposition), "t_determined": r.t_determined},
                separators=(",", ":"),
            )
            for r in self.records
        )

    def __len__(self) -> int:
        return len(self._records)
