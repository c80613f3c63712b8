"""Span tracing of hangon's public functions, installed from outside src/.

Each wrapper records one span per call: name, start, end, parent span and
one auxiliary number (a size such as terms in the input state or path
depth). Spans live in flat arrays until the run ends. A function is wrapped
on every attribute through which some hangon module looks it up, so calls
that go through a name imported with ``from .states import project`` are
caught as well as calls through ``hangon.states.project``; methods are
wrapped on their class.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

_perf = time.perf_counter


def _state_terms(args, kwargs, result):
    return args[0].term_count()


def _tensor_terms(args, kwargs, result):
    return args[0].term_count() * args[1].term_count()


def _result_terms(args, kwargs, result):
    return result.term_count()


def _observer_depth(args, kwargs, result):
    # Universe.observe(self, observer, ...): depth before the call; the
    # wrapper evaluates aux after the call, when the path is one longer.
    return args[1].depth - 1


def _ledger_length(args, kwargs, result):
    return len(args[0])


def _combinations(args, kwargs, result):
    return len(result)


def _arg(i, key):
    def aux(args, kwargs, result):
        return kwargs[key] if key in kwargs else args[i]

    return aux


def _photons(args, kwargs, result):
    return args[0].n_photons


# (span name, module, owner class or None, attribute, aux). Layers are
# hangon's modules; verify and cli are drivers over these calls and are not
# wrapped. Entries that feed no per-layer metric still matter: their time
# leaves their callers' self time.
TARGETS = [
    ("states.make_state", "hangon.states", None, "make_state", _result_terms),
    ("states.tensor", "hangon.states", None, "tensor", _tensor_terms),
    ("states.project", "hangon.states", None, "project", _state_terms),
    ("states.premeasure", "hangon.states", None, "premeasure", _state_terms),
    ("states.outcome_probability", "hangon.states", None, "outcome_probability", _state_terms),
    ("states.label_observable", "hangon.states", None, "label_observable", None),
    ("engine.Universe", "hangon.engine", "Universe", "__init__", None),
    ("engine.register_observer", "hangon.engine", "Universe", "register_observer", None),
    ("engine.observe", "hangon.engine", "Universe", "observe", _observer_depth),
    ("engine.communicate", "hangon.engine", "Universe", "communicate", None),
    ("engine.conditional_state", "hangon.engine", "Universe", "conditional_state", None),
    ("engine.branch_probabilities", "hangon.engine", "Universe", "branch_probabilities", None),
    ("engine.entangle_step", "hangon.engine", "Universe", "entangle_step", None),
    ("engine.force_observe", "hangon.engine", None, "force_observe", None),
    ("engine.create_universe", "hangon.engine", None, "create_universe", None),
    ("events.record", "hangon.events", "EventLedger", "record", None),
    ("events.truth_value", "hangon.events", "EventLedger", "truth_value", _ledger_length),
    ("rng.random", "hangon.rng", "RngStream", "random", None),
    ("rng.randoms", "hangon.rng", "RngStream", "randoms", _arg(1, "n")),
    ("rng.sample_indices", "hangon.rng", "RngStream", "sample_indices", _arg(2, "n")),
    ("analysis.sequential_joint_distribution", "hangon.analysis", None,
     "sequential_joint_distribution", _combinations),
    ("analysis.born_joint_distribution", "hangon.analysis", None,
     "born_joint_distribution", _combinations),
    ("scenarios.epr.run_epr", "hangon.scenarios.epr", None, "run_epr", _arg(1, "n")),
    ("scenarios.epr.run_partial_pair", "hangon.scenarios.epr", None, "run_partial_pair", _arg(0, "n")),
    ("scenarios.epr.epr_joint_distribution", "hangon.scenarios.epr", None,
     "epr_joint_distribution", None),
    ("scenarios.epr.partial_pair_joint_distribution", "hangon.scenarios.epr", None,
     "partial_pair_joint_distribution", None),
    ("scenarios.epr.build_epr_universe", "hangon.scenarios.epr", None, "build_epr_universe", None),
    ("scenarios.eraser.build_eraser_universe", "hangon.scenarios.eraser", None,
     "build_eraser_universe", None),
    ("scenarios.eraser.run_eraser", "hangon.scenarios.eraser", None, "run_eraser", _photons),
    ("scenarios.eraser.joint_density", "hangon.scenarios.eraser", None, "joint_density", None),
    ("scenarios.eraser.d0_marginal_density", "hangon.scenarios.eraser", None,
     "d0_marginal_density", None),
    ("scenarios.eraser.detector_conditional_given_bin", "hangon.scenarios.eraser", None,
     "detector_conditional_given_bin", None),
    ("scenarios.eraser.slit_mode_vectors", "hangon.scenarios.eraser", None, "slit_mode_vectors", None),
    ("scenarios.eraser.no_signaling_check", "hangon.scenarios.eraser", None,
     "no_signaling_check", None),
    ("scenarios.geometry.slit_wave_arrays", "hangon.scenarios.geometry", None,
     "slit_wave_arrays", None),
    ("scenarios.geometry.screen_density", "hangon.scenarios.geometry", None, "screen_density", None),
    ("scenarios.geometry.sample_screen_hits", "hangon.scenarios.geometry", None,
     "sample_screen_hits", _arg(1, "n")),
    ("scenarios.geometry.random_geometry", "hangon.scenarios.geometry", None, "random_geometry", None),
    ("scenarios.fringes.histogram_from_positions", "hangon.scenarios.fringes", None,
     "histogram_from_positions", None),
]


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` swap the wrappers
    in and out so traced and untraced rounds can alternate in one process."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("l")
        self.parents = array("l")
        self.aux = array("d")
        self.name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name_id)
        self.aux.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_perf())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = _perf()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one phase."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, aux):
        name_id = self._id(name)
        open_, close, aux_arr = self._open, self._close, self.aux

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if aux is not None:
                aux_arr[idx] = aux(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "hangon" or n.startswith("hangon.")]
        for name, module_name, owner, attr, aux in TARGETS:
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, aux))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, aux)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit a region of the run."""
        return len(self.starts)

    def count(self, name: str, lo: int = 0, hi: int | None = None) -> int:
        names = np.frombuffer(self.names, dtype=np.int64)[lo:hi]
        return int(np.count_nonzero(names == self.name_ids.get(name, -1)))

    def table(self) -> "SpanTable":
        return SpanTable(self)


class SpanTable:
    """Numpy view of every span with self time and the benchmark-level
    ancestor span (the phase) each one ran under."""

    def __init__(self, tracer: Tracer):
        self.ids = dict(tracer.name_ids)
        self.names = np.frombuffer(tracer.names, dtype=np.int64).copy()
        parents = np.frombuffer(tracer.parents, dtype=np.int64).copy()
        starts = np.frombuffer(tracer.starts, dtype=np.float64)
        ends = np.frombuffer(tracer.ends, dtype=np.float64)
        self.aux = np.frombuffer(tracer.aux, dtype=np.float64).copy()
        self.dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        # A single thread nests spans strictly, so the children of a span
        # cover exactly the sum of their durations.
        self.self_time = self.dur - child
        root = np.arange(len(parents))
        while True:
            up = np.where(parents[root] >= 0, parents[root], root)
            if np.array_equal(up, root):
                break
            root = up
        self.phase = self.names[root]

    def mask(self, name: str, phase: str | None = None) -> np.ndarray:
        m = self.names == self.ids.get(name, -1)
        if phase is not None:
            m &= self.phase == self.ids.get(phase, -1)
        return m

    def calls(self, name: str, phase: str | None = None) -> int:
        return int(np.count_nonzero(self.mask(name, phase)))

    def total(self, name: str, what: str = "dur") -> float:
        values = {"dur": self.dur, "self": self.self_time, "aux": self.aux}[what]
        return float(values[self.mask(name)].sum())

    def mean(self, name: str, what: str = "dur", where=None) -> float:
        values = {"dur": self.dur, "self": self.self_time, "aux": self.aux}[what]
        m = self.mask(name)
        if where is not None:
            m &= where(self.aux)
        return float(values[m].mean())
