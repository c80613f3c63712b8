"""Delayed-choice quantum eraser at desk scale.

The idler side is a four-detector discrete state entangled with the signal
photon's slit path: with the beam splitter in, D1 and D2 couple to anti-phased
path superpositions (the minimal relative phase that makes the two
post-selected fringe patterns cancel pairwise), while D3 and D4 tag a single
slit; with it out, every detector tags a single slit. The signal side reuses
the two-slit spherical-wave amplitudes: the joint detection density over
(detector, screen bin) is |sum over paths of branch amplitude times slit
wave|^2, so post-selecting on D1 or D2 reveals fringes, their union is
fringe-free, and the unconditioned screen marginal is identical whether or
not the beam splitter is present.

Runs sample either measurement order. The signal-first path draws screen
positions from the beam-splitter-independent marginal before the detector
label is sampled from the configured wave function, structurally enforcing
that recorded positions cannot depend on the later choice.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..analysis import Entangle, Observe, Schedule
from ..engine import Universe
from ..errors import ConfigError
from ..rng import RngStream, search_sorted
from ..states import Observable, StateVector, Subsystem, label_observable, make_state, tensor
from .fringes import FringeHistogram
from .geometry import SlitGeometry, path_difference, slit_wave_arrays

DETECTORS = ("D1", "D2", "D3", "D4")
PATHS = ("U", "L")
PERSPECTIVES = ("idler_first", "signal_first")

_DETECTOR = Subsystem("detector", DETECTORS)
_PATH = Subsystem("path", PATHS)
_SIGNAL_RECORD = Subsystem("signal_record", ("ready",) + PATHS)

_HALF = 0.5
_EIGHTH = 1.0 / (2.0 * math.sqrt(2.0))


def _check_perspective(perspective: str) -> None:
    if perspective not in PERSPECTIVES:
        raise ConfigError(f"perspective must be one of {PERSPECTIVES}")


@dataclass(frozen=True)
class EraserConfig:
    """One sampled eraser run: beam-splitter choice, measurement order, size,
    seed. The analytic functions take only ``(bs_present, geometry)``."""

    bs_present: bool
    perspective: str
    n_photons: int
    geometry: SlitGeometry
    seed: int

    def __post_init__(self) -> None:
        _check_perspective(self.perspective)
        if self.n_photons < 1:
            raise ConfigError("n_photons must be at least 1")


def branch_amplitudes(bs_present: bool) -> dict[tuple[str, str], complex]:
    """Amplitude per (detector, path) branch.

    With the beam splitter in, D2's lower-path branch is anti-phased to D1's;
    keeping it in phase would break the pairwise fringe cancellation.
    """
    if not bs_present:
        return {
            ("D1", "U"): _HALF,
            ("D2", "L"): _HALF,
            ("D3", "L"): _HALF,
            ("D4", "U"): _HALF,
        }
    return {
        ("D1", "U"): _EIGHTH,
        ("D1", "L"): _EIGHTH,
        ("D2", "U"): _EIGHTH,
        ("D2", "L"): -_EIGHTH,
        ("D3", "L"): _HALF,
        ("D4", "U"): _HALF,
    }


def eraser_state(bs_present: bool) -> StateVector:
    """The discrete (detector, path) state with or without the beam splitter:
    built once per process for each truth value of ``bs_present``, the same
    immutable state on every later call."""
    return _eraser_state(bool(bs_present))


# Keyed on a bool: ``functools.cache`` keys ``1`` and ``True`` apart.
@functools.cache
def _eraser_state(bs_present: bool) -> StateVector:
    amps = branch_amplitudes(bs_present)
    return make_state([_DETECTOR, _PATH], [((d, p), a) for (d, p), a in amps.items()])


@functools.cache
def _ready_record() -> StateVector:
    """The signal's record before it has fired, shared like the eraser state."""
    return make_state([_SIGNAL_RECORD], [(("ready",), 1.0)])


def _eraser_state_with_record(bs_present: bool) -> StateVector:
    """A new product of the shared factors on each call (see README,
    "Shared scenario states")."""
    return tensor(eraser_state(bs_present), _ready_record())


def build_eraser_universe(bs_present: bool, *, record: bool = False) -> Universe:
    """Universe over the discrete eraser state; optionally with a record
    pointer subsystem for the observer who measured the signal side."""
    return Universe(_eraser_state_with_record(bs_present) if record else eraser_state(bs_present))


def detector_observable() -> Observable:
    return label_observable(_DETECTOR, name="detector")


def path_observable() -> Observable:
    return label_observable(_PATH, name="path")


def eraser_schedule(bs_present: bool) -> Schedule:
    """The asker reads an idler detector and then asks for the signal's
    record, which an entangling step has correlated with the slit path."""
    record = Entangle(path_observable(), _SIGNAL_RECORD, {"U": "U", "L": "L"})
    ask = Observe(label_observable(_SIGNAL_RECORD, name="signal_record"))
    return Schedule(_eraser_state_with_record(bs_present), (record, Observe(detector_observable()), ask))


def slit_mode_vectors(g: SlitGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-slit signal amplitudes over the screen bins, unit-normalized.

    The modes are the raw discretized spherical waves; their residual
    discrete overlap (exactly zero only in the continuum limit) is a
    documented discretization artifact.
    """
    psi_up, psi_low = slit_wave_arrays(g)
    psi_up = psi_up / np.linalg.norm(psi_up)
    psi_low = psi_low / np.linalg.norm(psi_low)
    return psi_up, psi_low


def joint_density(
    bs_present: bool, g: SlitGeometry, *, _modes: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Joint detection distribution over (detector, screen bin), summing to 1.

    Row i is |sum over paths of branch_amplitude(i, path) * mode_path|^2.
    Callers that hold ``slit_mode_vectors(g)`` already pass it as ``_modes``.
    """
    psi = dict(zip(PATHS, slit_mode_vectors(g) if _modes is None else _modes))
    amps = branch_amplitudes(bs_present)
    rho = np.zeros((len(DETECTORS), len(g.screen_positions)))
    for i, det in enumerate(DETECTORS):
        wave = np.zeros_like(psi["U"])
        for p in PATHS:
            a = amps.get((det, p))
            if a is not None:
                wave = wave + a * psi[p]
        rho[i] = np.abs(wave) ** 2
    return rho / rho.sum()


def d0_marginal_density(
    g: SlitGeometry, *, _modes: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Screen marginal of the signal photon, normalized over bins.

    Computed from the slit modes alone: it takes no beam-splitter flag, which
    is the point — nothing about the later choice can reach it. Callers that
    hold ``slit_mode_vectors(g)`` already pass it as ``_modes``.
    """
    psi_up, psi_low = slit_mode_vectors(g) if _modes is None else _modes
    m = (np.abs(psi_up) ** 2 + np.abs(psi_low) ** 2) / 2.0
    return m / m.sum()


def detector_conditional_given_bin(
    bs_present: bool, g: SlitGeometry, *, _rho: np.ndarray | None = None
) -> np.ndarray:
    """Row-stochastic (bin, detector) matrix: which detector the idler twin
    lands in, given the signal photon's recorded position.

    Callers that hold ``joint_density(bs_present, g)`` already pass it as
    ``_rho``.
    """
    rho = joint_density(bs_present, g) if _rho is None else _rho
    col = rho.sum(axis=0)
    return (rho / col).T


def no_signaling_check(g: SlitGeometry) -> float:
    """Max pointwise difference of the screen marginal with and without the
    beam splitter; the pairwise fringe cancellation makes this vanish."""
    modes = slit_mode_vectors(g)
    with_bs = joint_density(True, g, _modes=modes).sum(axis=0)
    without = joint_density(False, g, _modes=modes).sum(axis=0)
    return float(np.max(np.abs(with_bs - without)))


def detector_envelope(bs_present: bool, g: SlitGeometry, detector: str) -> np.ndarray:
    """Fringe-free (incoherent) screen density for one detector: the null
    model for oscillation fits."""
    psi = dict(zip(PATHS, slit_mode_vectors(g)))
    env = np.zeros(len(g.screen_positions))
    for p in PATHS:
        a = branch_amplitudes(bs_present).get((detector, p))
        if a is not None:
            env += abs(a) ** 2 * np.abs(psi[p]) ** 2
    return env


def fringe_phase(g: SlitGeometry) -> np.ndarray:
    """Phase k * (path difference) over the screen bins."""
    return g.wavenumber * np.asarray(path_difference(g, g.screen_positions))


@dataclass(frozen=True, eq=False)
class EraserRun:
    """Sampled joint counts plus the analytic joint they were drawn from."""

    config: EraserConfig
    joint_counts: np.ndarray
    analytic_joint: np.ndarray
    histograms: dict
    detector_counts: dict

    @property
    def n_photons(self) -> int:
        return int(self.joint_counts.sum())


def _sample_idler_first(cfg: EraserConfig, rho: np.ndarray, rng: RngStream):
    # The detector first, from the row sums; then each photon's screen bin
    # from its own detector's row, all photons in one multi-table lookup.
    dets = rng.sample_indices(rho.sum(axis=1), cfg.n_photons)
    cdf = np.cumsum(rho, axis=1)
    cdf /= cdf[:, -1:]
    bins = search_sorted(cdf, rng.randoms(cfg.n_photons), side="right", rows=dets)
    np.minimum(bins, rho.shape[1] - 1, out=bins)
    return dets, bins


def _sample_signal_first(cfg: EraserConfig, rho: np.ndarray, modes, rng: RngStream):
    # Screen positions first, from the choice-independent marginal; the
    # configured wave function is consulted only for the detector labels.
    marginal = d0_marginal_density(cfg.geometry, _modes=modes)
    bins = rng.sample_indices(marginal, cfg.n_photons)
    cond = detector_conditional_given_bin(cfg.bs_present, cfg.geometry, _rho=rho)
    cdf = np.cumsum(cond, axis=1)
    # Each photon's detector from its own bin's row of the conditional cdf.
    dets = search_sorted(cdf, rng.randoms(cfg.n_photons), side="right", rows=bins)
    np.minimum(dets, len(DETECTORS) - 1, out=dets)
    return dets, bins


def run_eraser(cfg: EraserConfig) -> EraserRun:
    """Sample the configured run and build per-detector fringe histograms."""
    modes = slit_mode_vectors(cfg.geometry)
    rho = joint_density(cfg.bs_present, cfg.geometry, _modes=modes)
    rng = RngStream(cfg.seed)
    if cfg.perspective == "idler_first":
        dets, bins = _sample_idler_first(cfg, rho, rng)
    else:
        dets, bins = _sample_signal_first(cfg, rho, modes, rng)

    nbins = rho.shape[1]
    cell = dets * nbins
    cell += bins
    joint_counts = np.bincount(cell, minlength=len(DETECTORS) * nbins).reshape(
        len(DETECTORS), nbins
    )

    edges = cfg.geometry.bin_edges
    histograms = {
        det: FringeHistogram(edges, joint_counts[i])
        for i, det in enumerate(DETECTORS)
    }
    histograms["D1+D2"] = FringeHistogram(edges, joint_counts[0] + joint_counts[1])
    histograms["total"] = FringeHistogram(edges, joint_counts.sum(axis=0))
    detector_counts = {
        det: int(joint_counts[i].sum()) for i, det in enumerate(DETECTORS)
    }
    return EraserRun(cfg, joint_counts, rho, histograms, detector_counts)


def analytic_joint_by_perspective(
    bs_present: bool, g: SlitGeometry, perspective: str
) -> np.ndarray:
    """The joint (detector, bin) distribution computed along the given
    perspective's own factorization; both perspectives must agree."""
    _check_perspective(perspective)
    if perspective == "idler_first":
        return joint_density(bs_present, g)
    modes = slit_mode_vectors(g)
    marginal = d0_marginal_density(g, _modes=modes)
    cond = detector_conditional_given_bin(bs_present, g, _rho=joint_density(bs_present, g, _modes=modes))
    return (cond * marginal[:, None]).T
