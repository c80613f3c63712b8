"""The observer-relative measurement engine.

One Universe holds a global entangled state that only ever changes through
deterministic entangling steps (premeasurement); observation never touches
it. Each observer owns a path through a shared branch tree: observing an
observable samples one outcome class Born-weighted within her current
conditional state, then extends her path to the matching daughter branch and
appends an event to her ledger. Asking another observer for a result is the
same operation applied to that observer's record subsystem, which is why two
observers can never report conflicting results to each other: the reply is
sampled inside the asker's own branch.

Each observer caches one record of her branch, keyed by the global state
it was projected from and by her current node: the unnormalized branch, so
a query projects only through the selectors added since the last one; the
normalized branch and the split of every observable asked about, so a
repeated query on an unchanged path is a lookup; the fixed facts, the
selectors the branch keeps whole, which are not projected again; and the
answer table's branches below. Only a projection that narrows the branch
builds a record, whose facts are those of the branch it came from plus the
selectors it went through, so the first repeat of a narrowing observation
projects nothing. A node reached through selectors that keep the branch
whole shares the record whole: ``observe`` moves the memo there when the
chosen class carries the whole weight and is among the fixed facts, so a
fact observed again costs no query, and ``conditional_state`` does when a
projection drops no term, the newest selector joining the facts.
A split is built once, in one pass over the observable's classes: the
class weights, their total, the positive classes in class order and their
running sums. ``observe`` and ``force_observe`` read the split in place,
straight from the observer's memo when it sits at her current node on the
current global state, so the ``observe`` that ends a forced step finds the
split ``force_observe`` just read without another ``conditional_state``
call; ``branch_probabilities`` hands callers a copy of the weights.
``observe`` is the one place that maps a uniform draw to a class, by a
binary search of the running sums: ``force_observe`` names the class it
has checked instead of steering a draw onto it, and ``observe`` hangs on
to that class without drawing and records it as it records a sampled one.
``entangle_step`` replaces the global state, which makes every cache stale;
the next query rebuilds it from the root once.

The universes that one ``Schedule.counts``, ``Schedule.joint`` or
``sequential_joint_distribution`` call builds share one ``_AnswerTable``,
created when the call starts and dropped when it returns; the trials of
``verify``'s ``no_conflict`` check share one the same way. It holds what
every trial or forced walk over the same initial state would otherwise
compute again: each premeasurement, keyed by its input global state and
entangle step, and the record of every branch a projection narrowed.
An observer's cache is filled from the table on a miss before anything is
projected, and the table is written after a projection, so ``observe``,
the draws, the clock, the ledger and the trace run as they do without it.
A Universe built without a table keeps nothing beyond its observers'
caches.

A Universe and its observers form one mutation domain driven by a single
thread of control. The queries (conditional_state, branch_probabilities)
write only the queried observer's cache, never the global state or another
observer; that write is idempotent (one cache per observer, and a record
that several nodes share gets equal splits and the same facts from each),
so the queries may run concurrently between mutations.
Distinct universes with distinct seeds parallelize freely.
"""
from __future__ import annotations

import json
import operator
from bisect import bisect_right
from typing import Mapping, NamedTuple

from .errors import AllOutcomesForbidden, DuplicateObserver, EmptyBranch, PointerNotReady, UnknownOutcome
from .events import EventLedger, _proposition
from .states import (
    NORM_TOL,
    Observable,
    StateVector,
    Subsystem,
    outcome_probability,
    premeasure,
    project,
)

# Probability mass below which every outcome counts as forbidden. Unreachable
# for a valid partition of a unit-norm conditional state; kept as a guard
# against floating-point pruning emptying a branch.
_FORBIDDEN_TOL = 1e-12


# ``observe`` builds one BranchNode and one TraceEntry per call, so both are
# NamedTuples: immutable, compared and hashed field by field, and built in
# half the time of a frozen dataclass or less. ``observe`` builds them with
# ``tuple.__new__``, which skips the generated ``__new__`` and its keyword
# handling. The ledger's Proposition and EventRecord are public API and stay
# frozen dataclasses: their value equality and hashing never make them equal
# to a plain tuple. ``observe`` builds one slotted Proposition through
# ``events._proposition``; the ledger stores it with its time and builds
# EventRecords only when read.
_tuple_new = tuple.__new__

# An observable's split at one branch: its class weights, their total, the
# classes of positive weight in class order and their running sums. Built
# once by ``_class_weights`` and never mutated afterwards.
_Split = tuple[dict[str, float], float, list[str], list[float]]


class BranchNode(NamedTuple):
    """One hung-on selector; the root carries no selector."""

    parent: "BranchNode | None"
    selector: tuple[Observable, str] | None
    depth: int


class TraceEntry(NamedTuple):
    """One observation: who, when, which observable, the outcome and its
    Born weight in the observer's branch. The fields are a trace line's keys."""

    observer: str
    clock: int
    observable: str
    outcome: str
    probability: float


class _AnswerTable:
    """Answers shared by the universes of one schedule call.

    ``branches(state)`` is a dict from the selectors a projection went
    through, in walk order, to the record of the branch it narrowed, whose
    last slot is the same dict for the branches below. Nodes that share a
    record share that slot: a selector that keeps a branch whole changes
    no projection below it. Every value holds the objects whose ids key
    it, so no id is reused while the table lives.
    """

    __slots__ = ("_premeasured", "_roots")

    def __init__(self):
        self._premeasured: dict[tuple[int, int, int, int], tuple] = {}
        self._roots: dict[int, tuple[StateVector, dict]] = {}

    def premeasure(
        self,
        state: StateVector,
        system_obs: Observable,
        pointer: Subsystem,
        correlation: Mapping[str, str],
    ) -> StateVector:
        key = (id(state), id(system_obs), id(pointer), id(correlation))
        hit = self._premeasured.get(key)
        if hit is None:
            result = premeasure(state, system_obs, pointer, correlation)
            hit = self._premeasured[key] = (state, system_obs, pointer, correlation, result)
        return hit[4]

    def branches(self, state: StateVector) -> dict:
        hit = self._roots.get(id(state))
        if hit is None:
            hit = self._roots[id(state)] = (state, {})
        return hit[1]


class ObserverHandle:
    """An observer's identity, current branch node, and event ledger.

    ``_memo`` is ``(global state, node) + record``, kept flat. The record
    ``(unnormalized branch, normalized branch, {observable: split},
    {observable: fixed class}, branches below)`` is the global state
    projected through every selector from the root down to ``node``, an
    ancestor of (or equal to) the current node, with the answers already
    given there; ``branches below`` is None when the universe has no
    answer table. Nodes reached through selectors that keep the branch
    whole share one record.
    """

    __slots__ = ("id", "ledger", "_node", "_memo")

    def __init__(self, observer_id: str, root: BranchNode):
        self.id = observer_id
        self.ledger = EventLedger(observer_id)
        self._node = root
        self._memo: (
            tuple[
                StateVector,
                BranchNode,
                StateVector,
                StateVector,
                dict[Observable, _Split],
                dict[Observable, str],
                dict | None,
            ]
            | None
        ) = None

    @property
    def node(self) -> BranchNode:
        return self._node

    @property
    def depth(self) -> int:
        return self._node.depth

    def path_selectors(self) -> list[tuple[Observable, str]]:
        """Selectors from the root down to the current node."""
        out: list[tuple[Observable, str]] = []
        node = self._node
        while node.selector is not None:
            out.append(node.selector)
            node = node.parent  # type: ignore[assignment]
        out.reverse()
        return out

    def __repr__(self) -> str:
        return f"ObserverHandle({self.id!r}, depth={self.depth})"


class Universe:
    """A shared never-reduced global state plus its branch tree and clock.

    One Universe value is one observer-relative empirical world: other
    observers appear inside it only as pointer subsystems. Observation
    (``observe``/``communicate``) mutates observers and the trace, never the
    global state; only ``entangle_step`` replaces the global state, and it
    does so deterministically.
    """

    def __init__(self, initial: StateVector, *, _answers: _AnswerTable | None = None):
        # Written so that a NaN norm fails it too.
        if not abs(initial.norm_squared() - 1.0) <= NORM_TOL:
            raise ValueError("initial global state must be normalized")
        self._answers = _answers
        self._state = initial
        self._root = _tuple_new(BranchNode, (None, None, 0))
        self._clock = 0
        self._observers: dict[str, ObserverHandle] = {}
        self._trace: list[TraceEntry] = []
        # Names of the subsystems any observer here has observed.
        self._observed: set[str] = set()

    @property
    def global_state(self) -> StateVector:
        return self._state

    @property
    def clock(self) -> int:
        return self._clock

    @property
    def root(self) -> BranchNode:
        return self._root

    @property
    def subsystems(self) -> tuple[Subsystem, ...]:
        return self._state.subsystems

    @property
    def trace(self) -> tuple[TraceEntry, ...]:
        return tuple(self._trace)

    def subsystem(self, name: str) -> Subsystem:
        return self._state.subsystem(name)

    def register_observer(self, observer_id: str) -> ObserverHandle:
        """A fresh observer hanging on at the root with an empty ledger."""
        if observer_id in self._observers:
            raise DuplicateObserver(f"observer {observer_id!r} already registered")
        handle = ObserverHandle(observer_id, self._root)
        self._observers[observer_id] = handle
        return handle

    def advance_clock(self, to: int) -> None:
        """Fast-forward the logical clock (narratives supply their own times).

        Times are integers: a float, a string or a bool raises TypeError,
        and an earlier time raises ValueError, both before the clock moves."""
        # ``operator.index`` takes a bool as 0 or 1.
        if type(to) is bool:
            raise TypeError(f"clock time must be an integer, not {to!r}")
        t = operator.index(to)
        if t < self._clock:
            raise ValueError(f"clock cannot move backwards ({t} < {self._clock})")
        self._clock = t

    def _check_registered(self, observer: ObserverHandle) -> None:
        if self._observers.get(observer.id) is not observer:
            raise KeyError(f"observer {observer.id!r} is not registered in this universe")

    def entangle_step(
        self,
        system_obs: Observable,
        pointer: Subsystem,
        correlation: Mapping[str, str],
    ) -> None:
        """Replace the global state by its premeasurement against a pointer.

        No observer's path moves and no event is recorded: for every observer
        here, this interaction produces entanglement, not a definite result.
        A pointer that an observer has already read cannot fire: that would
        rewrite a record under her, so it raises PointerNotReady and changes
        nothing.
        """
        if pointer.name in self._observed:
            raise PointerNotReady(f"pointer {pointer.name!r} has already been observed")
        if self._answers is None:
            self._state = premeasure(self._state, system_obs, pointer, correlation)
        else:
            self._state = self._answers.premeasure(self._state, system_obs, pointer, correlation)
        self._clock += 1

    def conditional_state(self, observer: ObserverHandle) -> StateVector:
        """The global state seen through every selector on the observer's
        path, renormalized. Never mutates the universe.

        Projects only through the selectors added since the observer's cached
        branch, O(new selectors) projections; after an ``entangle_step`` the
        cache is stale and the whole path is projected once. While neither the
        global state nor the observer's node changes, the cached normalized
        branch is returned as is. ``project`` keeps the surviving terms'
        amplitudes and order, so the result equals the re-projection from the
        root exactly, and a projection that keeps every term of the cached
        branch gives that branch again: the new node shares its record, and
        the newest selector joins its fixed facts. A
        projection that drops terms starts a new branch whose fixed facts
        are the cached branch's plus every selector just projected. A
        selector already among them is not projected again.
        With an answer table, a miss first looks the new selectors up
        below the cached node and projects only if no universe of the same
        call has.
        """
        self._check_registered(observer)
        node = observer._node
        memo = observer._memo
        if memo is not None and memo[0] is self._state:
            if memo[1] is node:
                return memo[3]
            _, stop, branch, _, _, fixed, below = memo
        else:
            memo = None
            stop, branch, fixed = self._root, self._state, {}
            below = None if self._answers is None else self._answers.branches(branch)
        selectors = None
        if below is not None:
            selectors = []
            walk = node
            while walk is not stop:
                selectors.append(walk.selector)
                walk = walk.parent
            selectors = tuple(selectors)
            record = below.get(selectors)
            if record is not None:
                observer._memo = (self._state, node) + record
                return record[1]
        # Projections are term filters and commute, so they apply in walk
        # order, newest selector first. A selector the memo's branch keeps
        # whole keeps every sub-branch whole too, so it is not projected.
        walk = node
        while walk is not stop:
            obs, outcome = walk.selector
            if fixed.get(obs) != outcome:
                branch = project(branch, obs, outcome)
            walk = walk.parent
        if memo is not None and (branch is memo[2] or branch.term_count() == memo[2].term_count()):
            # Nothing was projected, or nothing was dropped, so the branch is
            # the memo's term for term: the node hangs on to the memo's
            # record, and the newest selector joins its facts.
            obs, outcome = node.selector
            memo[5][obs] = outcome
            observer._memo = (self._state, node) + memo[2:]
            return memo[3]
        # A narrower branch: every selector just projected keeps it whole,
        # and so does every fact that kept the memo's branch whole.
        fixed = dict(fixed)
        walk = node
        while walk is not stop:
            obs, outcome = walk.selector
            fixed[obs] = outcome
            walk = walk.parent
        record = (branch, branch.normalized(), {}, fixed, None if below is None else {})
        if below is not None:
            below[selectors] = record
        observer._memo = (self._state, node) + record
        return record[1]

    def _class_weights(self, observer: ObserverHandle, obs: Observable) -> _Split:
        """The observer's memoised split of ``obs`` at her node, built on
        first use. The split is the cache's own: read it only.

        A memo at her current node on the current global state is read
        directly; anything else goes through ``conditional_state``. Either
        way the observer's registration is checked first."""
        memo = observer._memo
        if memo is None or memo[1] is not observer._node or memo[0] is not self._state:
            self.conditional_state(observer)
            memo = observer._memo
        else:
            self._check_registered(observer)
        weights = memo[4]
        split = weights.get(obs)
        if split is None:
            conditional = memo[3]
            probs, classes, running, acc = {}, [], [], 0.0
            for cls in obs.class_names:
                p = probs[cls] = outcome_probability(conditional, obs, cls)
                if p > 0.0:
                    acc += p
                    classes.append(cls)
                    running.append(acc)
            # ``sum`` keeps a NaN weight in the total, so ``observe`` refuses it.
            split = weights[obs] = (probs, sum(probs.values()), classes, running)
        return split

    def branch_probabilities(self, observer: ObserverHandle, obs: Observable) -> dict[str, float]:
        """The sampling distribution ``observe`` would draw from, untouched.

        Computed once per observable at each node of the observer's path;
        every call returns a fresh copy of the cached weights.
        """
        return dict(self._class_weights(observer, obs)[0])

    def observe(
        self,
        observer: ObserverHandle,
        obs: Observable,
        rng,
        t_happened: int | None = None,
        *,
        _outcome: str | None = None,
    ) -> str:
        """Born-rule branch selection: sample an outcome within the observer's
        conditional state, hang on to the daughter branch, record the event.

        ``t_happened`` dates the recorded fact; it defaults to now. A fact
        becomes determined only by this measurement, so a date later than now
        raises ValueError, and a date that is not an integer (a bool is not
        one) raises TypeError, before anything is drawn or written. The
        global state is untouched.

        ``_outcome`` is ``force_observe``'s: a class it has checked to be
        supported, hung on to without a draw (``rng`` is not read).
        """
        if t_happened is not None:
            if type(t_happened) is not int:
                if type(t_happened) is bool:
                    raise TypeError(f"t_happened must be an integer, not {t_happened!r}")
                t_happened = operator.index(t_happened)
            if t_happened > self._clock:
                raise ValueError(f"t_happened={t_happened} is after its determination at t={self._clock}")
        memo = observer._memo
        if (
            memo is not None
            and memo[1] is observer._node
            and memo[0] is self._state
            and self._observers.get(observer.id) is observer
        ):
            split = memo[4].get(obs) or self._class_weights(observer, obs)
        else:
            split = self._class_weights(observer, obs)
        probs, total, classes, running = split
        if not total > _FORBIDDEN_TOL:  # a NaN total fails too
            raise AllOutcomesForbidden(f"no outcome of {obs.name!r} has support in this branch")
        if _outcome is None:
            # The first positive class whose running sum exceeds the draw,
            # or the last one when rounding leaves the draw above them all.
            i = bisect_right(running, rng.random() * total)
            outcome = classes[i] if i < len(classes) else classes[-1]
        else:
            outcome = _outcome
        t = self._clock
        self._clock = t + 1
        node = observer._node
        observer._node = child = _tuple_new(BranchNode, (node, (obs, outcome), node.depth + 1))
        if probs[outcome] == total:
            # Every other class weighs 0.0. If the branch is known to keep
            # this class whole, the child shares the record of the memo at
            # ``node``, where the split was read.
            memo = observer._memo
            if memo[5].get(obs) == outcome:
                observer._memo = (self._state, child) + memo[2:]
        name = obs.subsystem.name
        observer.ledger.record(_proposition(name, outcome, t if t_happened is None else t_happened), t)
        self._observed.add(name)
        self._trace.append(_tuple_new(TraceEntry, (observer.id, t, obs.name, outcome, probs[outcome])))
        return outcome

    def communicate(
        self,
        asker: ObserverHandle,
        record: Observable,
        rng,
        t_happened: int | None = None,
    ) -> str:
        """Ask another observer for a result: a measurement of her record
        subsystem, with exactly the contract of ``observe``. The daughter
        constraint makes the reply consistent with everything the asker has
        already seen."""
        return self.observe(asker, record, rng, t_happened)

    def trace_json(self) -> str:
        """Branch-trace export: one JSON line per observation, in order,
        holding the ``TraceEntry`` fields in field order."""
        return "\n".join(json.dumps(e._asdict(), separators=(",", ":")) for e in self._trace)


def create_universe(initial: StateVector) -> Universe:
    """A universe whose branch tree holds only the root, at clock 0; equal
    to ``Universe(initial)``."""
    return Universe(initial)


def force_observe(
    universe: Universe,
    observer: ObserverHandle,
    obs: Observable,
    outcome: str,
    *,
    t_happened: int | None = None,
) -> float:
    """Extend the observer's path onto a chosen outcome (analysis hook).

    Names the checked class to ``observe``, which hangs on to it without a
    draw and otherwise runs as it does for a sampled outcome: the tick, the
    node, the ledger record and the trace entry; ``t_happened`` is passed
    on. Returns the probability the outcome had. An outcome the observable
    lacks raises UnknownOutcome, and forcing a zero-probability outcome
    raises EmptyBranch: nothing can hang on to an unsupported branch.
    """
    p = universe._class_weights(observer, obs)[0].get(outcome)
    if p is None:
        raise UnknownOutcome(f"unknown outcome class {outcome!r} on {obs.name!r}")
    if p <= 0.0:
        raise EmptyBranch(f"outcome {outcome!r} has no support on this path")
    universe.observe(observer, obs, None, t_happened, _outcome=outcome)
    return p
