"""Sparse labeled state vectors over composite finite spaces.

A state is a finite map from composite basis labels (one label per registered
subsystem, in registration order) to complex amplitudes. Everything here is a
pure value operation: construction and normalization, tensor products,
outcome probabilities, branch projection, and the deterministic entangling
premeasurement that correlates a system with a pointer subsystem. Callers'
states are never mutated; observation-style randomness lives elsewhere.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptyBranch,
    PointerNotReady,
    SubsystemClash,
    UnknownLabel,
    UnknownOutcome,
    ZeroNorm,
)

# |norm^2 - 1| tolerance after any normalization.
NORM_TOL = 1e-12
# Squared-modulus floor below which stored amplitudes are pruned.
PRUNE_THRESHOLD = 1e-30
# Squared norms below this may hold subnormal squares, whose lost digits
# would show in the norm; they are normalized by the rescaling path.
_MIN_NORM2 = 2.0 ** -970


@dataclass(frozen=True)
class Subsystem:
    """A named factor of the composite space with a fixed finite label set."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("subsystem name must be non-empty")
        if not self.labels:
            raise ValueError(f"subsystem {self.name!r} needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"subsystem {self.name!r} has duplicate labels")
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))


class Observable:
    """A projective measurement on one subsystem.

    Outcome classes partition the subsystem's labels; a class may group
    several labels (degenerate outcome). Identity (not structural equality)
    is what branch selectors store, so two separately built observables are
    distinct selectors even if they partition identically.
    """

    __slots__ = ("subsystem", "outcome_classes", "class_names", "name", "_class_of", "_members")

    def __init__(
        self,
        subsystem: Subsystem,
        outcome_classes: Mapping[str, Iterable[str]],
        *,
        name: str | None = None,
    ):
        if len(subsystem.labels) < 2:
            raise ValueError(f"measured subsystem {subsystem.name!r} needs at least 2 labels")
        classes: dict[str, tuple[str, ...]] = {}
        class_of: dict[str, str] = {}
        for cls, labels in outcome_classes.items():
            members = tuple(str(l) for l in labels)
            if not members:
                raise ValueError(f"outcome class {cls!r} is empty")
            for label in members:
                if label not in subsystem.labels:
                    raise UnknownLabel(f"label {label!r} not declared on subsystem {subsystem.name!r}")
                if label in class_of:
                    raise ValueError(f"label {label!r} appears in two outcome classes")
                class_of[label] = cls
            classes[cls] = members
        if not classes:
            raise ValueError("observable needs at least one outcome class")
        missing = set(subsystem.labels) - set(class_of)
        if missing:
            raise ValueError(f"outcome classes do not cover labels {sorted(missing)!r}")
        self.subsystem = subsystem
        self.outcome_classes = classes
        self.class_names = tuple(classes)
        self.name = name if name is not None else subsystem.name
        self._class_of = class_of
        self._members = {cls: frozenset(members) for cls, members in classes.items()}

    def class_of(self, label: str) -> str:
        """Outcome class containing the given label."""
        try:
            return self._class_of[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not declared on subsystem {self.subsystem.name!r}") from None

    def __repr__(self) -> str:
        return f"Observable({self.name!r} on {self.subsystem.name!r}: {list(self.class_names)})"


def label_observable(subsystem: Subsystem, *, name: str | None = None) -> Observable:
    """The fine-grained observable whose classes are the labels themselves."""
    return Observable(subsystem, {label: (label,) for label in subsystem.labels}, name=name)


class StateVector:
    """Immutable sparse state over an ordered tuple of subsystems.

    The squared norm is computed on first use and kept.
    """

    __slots__ = ("subsystems", "_terms", "_index", "_norm2")

    def __init__(self, subsystems: Sequence[Subsystem], terms: Mapping[tuple[str, ...], complex]):
        self.subsystems = tuple(subsystems)
        self._terms = dict(terms)
        self._norm2: float | None = None
        self._index = {s.name: i for i, s in enumerate(self.subsystems)}
        if len(self._index) != len(self.subsystems):
            raise SubsystemClash("duplicate subsystem names in one state")

    @property
    def terms(self) -> Mapping[tuple[str, ...], complex]:
        """Read-only view of the stored label-tuple -> amplitude map."""
        return MappingProxyType(self._terms)

    def subsystem_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownLabel(f"no subsystem named {name!r} in this state") from None

    def subsystem(self, name: str) -> Subsystem:
        return self.subsystems[self.subsystem_index(name)]

    def amplitude(self, labels: Sequence[str]) -> complex:
        return self._terms.get(tuple(labels), 0j)

    def norm_squared(self) -> float:
        n2 = self._norm2
        if n2 is None:
            n2 = self._norm2 = _norm_squared(self._terms)
        return n2

    def normalized(self) -> "StateVector":
        """Unit-norm copy; raises ZeroNorm if there is nothing to scale."""
        n2 = self.norm_squared()
        if abs(n2 - 1.0) <= NORM_TOL:
            return self
        base, scale = _unit_scale(self._terms, n2, "state has zero norm")
        return _derived(self, {k: v * scale for k, v in base.items()})

    def term_count(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.subsystems == other.subsystems and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        subs = ",".join(s.name for s in self.subsystems)
        return f"StateVector([{subs}], {len(self._terms)} terms)"


def _derived(parent: StateVector, terms: dict[tuple[str, ...], complex]) -> StateVector:
    """A state over ``parent``'s subsystems that takes ownership of ``terms``.

    For results built here from ``parent``'s own terms: the subsystems and
    their index are shared, not copied or checked again, and ``terms`` must
    be a fresh dict that no caller holds.
    """
    s = object.__new__(StateVector)
    s.subsystems = parent.subsystems
    s._index = parent._index
    s._terms = terms
    s._norm2 = None
    return s


def _check_finite(amp: complex) -> complex:
    if not cmath.isfinite(amp):
        raise ValueError(f"non-finite amplitude {amp!r}")
    return amp


def _validate_labels(subsystems: Sequence[Subsystem], labels: Sequence[str]) -> tuple[str, ...]:
    key = tuple(map(str, labels))
    if len(key) != len(subsystems):
        raise UnknownLabel(
            f"label tuple {key!r} has {len(key)} entries for {len(subsystems)} subsystems"
        )
    for sub, label in zip(subsystems, key):
        if label not in sub.labels:
            raise UnknownLabel(f"label {label!r} not declared on subsystem {sub.name!r}")
    return key


def _norm_squared(terms: Mapping[tuple[str, ...], complex]) -> float:
    """Sum of squared moduli; inf when the sum overflows."""
    try:
        return math.fsum((a.real * a.real + a.imag * a.imag) for a in terms.values())
    except OverflowError:
        return math.inf


def _unit_scale(
    terms: Mapping[tuple[str, ...], complex], n2: float, empty: str
) -> tuple[Mapping[tuple[str, ...], complex], float]:
    """``(base, scale)`` such that ``base[k] * scale`` has unit norm, given
    the squared norm ``n2`` of ``terms``; raises ZeroNorm(``empty``) when
    every amplitude is zero.

    While ``n2`` is finite and at least ``_MIN_NORM2``, ``base`` is
    ``terms`` and ``scale`` is ``1 / sqrt(n2)``. Otherwise the squares
    overflowed, underflowed or lost digits as subnormals, so ``base`` is
    ``terms`` divided by their largest real or imaginary part, which brings
    every square into [0, 1] before the norm is taken again.
    """
    if _MIN_NORM2 <= n2 < math.inf:
        return terms, 1.0 / math.sqrt(n2)
    largest = max((max(abs(a.real), abs(a.imag)) for a in terms.values()), default=0.0)
    if largest == 0.0:
        raise ZeroNorm(empty)
    base = {k: v / largest for k, v in terms.items()}
    return base, 1.0 / math.sqrt(_norm_squared(base))


def make_state(
    subsystems: Sequence[Subsystem],
    terms: Iterable[tuple[Sequence[str], complex]],
) -> StateVector:
    """Build a normalized state; duplicate label tuples are summed first."""
    subs = tuple(subsystems)
    acc: dict[tuple[str, ...], complex] = {}
    for labels, amp in terms:
        key = _validate_labels(subs, labels)
        acc[key] = acc.get(key, 0j) + _check_finite(complex(amp))
    if not acc:
        raise ZeroNorm("no terms supplied")
    base, scale = _unit_scale(acc, _norm_squared(acc), "all amplitudes cancelled")
    scaled = {
        k: w
        for k, v in base.items()
        if ((w := v * scale).real * w.real + w.imag * w.imag) >= PRUNE_THRESHOLD
    }
    if not scaled:
        raise ZeroNorm("all amplitudes cancelled")
    return StateVector(subs, scaled)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Product state on the disjoint union of subsystems; norms multiply.

    Products below the pruning floor are dropped as they are built. Every
    key of ``a`` has one length, so joining keys is injective: each product
    term is built once, in ``a``-major order.
    """
    overlap = a._index.keys() & b._index.keys()
    if overlap:
        raise SubsystemClash(f"subsystems {sorted(overlap)!r} present in both factors")
    b_terms = b._terms.items()
    combined = {
        ka + kb: w
        for ka, va in a._terms.items()
        for kb, vb in b_terms
        if ((w := va * vb).real * w.real + w.imag * w.imag) >= PRUNE_THRESHOLD
    }
    # Disjoint factors with distinct names each: no duplicate to check.
    s = object.__new__(StateVector)
    s.subsystems = subsystems = a.subsystems + b.subsystems
    s._index = {sub.name: i for i, sub in enumerate(subsystems)}
    s._terms = combined
    s._norm2 = None
    return s


def outcome_probability(s: StateVector, obs: Observable, outcome: str) -> float:
    """Born weight of one outcome class: sum of |amplitude|^2 over its terms."""
    member_set = obs._members.get(outcome)
    if member_set is None:
        raise UnknownOutcome(f"unknown outcome class {outcome!r} on {obs.name!r}")
    i = s.subsystem_index(obs.subsystem.name)
    return math.fsum(
        (a.real * a.real + a.imag * a.imag)
        for labels, a in s._terms.items()
        if labels[i] in member_set
    )


def project(s: StateVector, obs: Observable, outcome: str) -> StateVector:
    """Unnormalized branch: keep exactly the terms inside the outcome class.

    The input state is untouched; the result's squared norm equals the
    outcome probability. This extracts a branch for inspection, it is not a
    collapse of anything.
    """
    member_set = obs._members.get(outcome)
    if member_set is None:
        raise UnknownOutcome(f"unknown outcome class {outcome!r} on {obs.name!r}")
    i = s.subsystem_index(obs.subsystem.name)
    kept = {labels: a for labels, a in s._terms.items() if labels[i] in member_set}
    if not kept:
        raise EmptyBranch(f"outcome {outcome!r} has no support in this state")
    return _derived(s, kept)


def premeasure(
    s: StateVector,
    system_obs: Observable,
    pointer: Subsystem,
    correlation: Mapping[str, str],
) -> StateVector:
    """Deterministically entangle a pointer with a system observable.

    Every term's pointer label (which must be the pointer's ready label,
    ``pointer.labels[0]``, in every term) is rewritten to correlation(outcome
    class of the term's system label). A fired pointer is never re-fired, so
    a record once written is not rewritten. No sampling, no result: this is
    the interaction step that produces an entangled premeasurement state.
    """
    sys_i = s.subsystem_index(system_obs.subsystem.name)
    ptr_i = s.subsystem_index(pointer.name)
    if sys_i == ptr_i:
        raise ValueError("pointer and measured subsystem must differ")
    for cls, label in correlation.items():
        if cls not in system_obs.outcome_classes:
            raise UnknownOutcome(f"correlation maps unknown outcome class {cls!r}")
        if label not in pointer.labels:
            raise UnknownLabel(f"label {label!r} not declared on pointer {pointer.name!r}")
    targets = list(correlation.values())
    if len(set(targets)) != len(targets):
        raise ValueError("correlation must be injective")

    ready = pointer.labels[0]
    after = ptr_i + 1
    # System label -> (pointer label,), for every label whose class is mapped.
    pointer_of = {
        label: (correlation[cls],)
        for label, cls in system_obs._class_of.items()
        if cls in correlation
    }
    # One pass over the ready terms. A rewrite changes only the pointer
    # label, which was ready in every one, so it is injective: one new term
    # per old one, with the same squared modulus, hence the same squared
    # norm. ``0j + a`` turns a -0.0 part into 0.0.
    try:
        rewritten = {
            labels[:ptr_i] + pointer_of[labels[sys_i]] + labels[after:]: 0j + a
            for labels, a in s._terms.items()
            if labels[ptr_i] == ready
        }
    except KeyError:
        rewritten = None
    if not rewritten or len(rewritten) != len(s._terms):
        # A term the pass could not rewrite: a pointer that is not ready in
        # every term is named first, then the first term whose class the
        # correlation does not cover.
        pointer_labels = {labels[ptr_i] for labels in s._terms}
        if pointer_labels != {ready}:
            raise PointerNotReady(
                f"pointer {pointer.name!r} is in labels {sorted(pointer_labels)!r}, "
                f"expected only its ready label {ready!r}"
            )
        label = next(labels[sys_i] for labels in s._terms if labels[sys_i] not in pointer_of)
        # class_of raises UnknownLabel for a label the observable lacks.
        cls = system_obs.class_of(label)
        raise UnknownOutcome(f"correlation does not cover outcome class {cls!r} (it has support)")
    out = _derived(s, rewritten)
    out._norm2 = s._norm2
    return out


def _fmt17(x: float) -> str:
    """17-significant-digit decimal form (round-trips any double)."""
    return format(x, ".17g")


def to_canonical_json(s: StateVector) -> str:
    """Canonical single-line JSON: registration-ordered subsystems, terms
    sorted lexicographically by label tuple, 17-significant-digit amplitudes."""
    subs = ",".join(
        '{"name":%s,"labels":[%s]}'
        % (json.dumps(sub.name), ",".join(json.dumps(l) for l in sub.labels))
        for sub in s.subsystems
    )
    terms = ",".join(
        '{"labels":[%s],"re":%s,"im":%s}'
        % (",".join(json.dumps(l) for l in labels), _fmt17(a.real), _fmt17(a.imag))
        for labels, a in sorted(s._terms.items())
    )
    return '{"subsystems":[%s],"terms":[%s]}' % (subs, terms)


def state_from_canonical_json(text: str) -> StateVector:
    """Inverse of to_canonical_json; amplitudes are restored exactly."""
    doc = json.loads(text)
    subs = tuple(Subsystem(d["name"], tuple(d["labels"])) for d in doc["subsystems"])
    terms: dict[tuple[str, ...], complex] = {}
    for t in doc["terms"]:
        key = _validate_labels(subs, t["labels"])
        terms[key] = _check_finite(complex(float(t["re"]), float(t["im"])))
    return StateVector(subs, terms)
