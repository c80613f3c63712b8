"""Two-slit geometry and the spherical-wave amplitude model.

The particle's screen amplitude is the sum of two spherical waves, one per
slit: exp(ik*d)/d with d the distance from the slit to the screen point.
Detection is modeled two ways: a discretized screen line sampling positions
Born-weighted from |amplitude|^2, and a far-field momentum detector pair
whose click probabilities are the squared moduli of the two planar-wave
coefficients. Fringe extrema are located analytically from the slit path
difference and used as the yardstick for every fringe test.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import NotFarField, SingularPoint
from ..rng import RngStream, sample_count, search_sorted

# Minimum ratio of detector distance to slit separation for the planar-wave
# (far-field) approximation of the momentum measurement.
FAR_FIELD_RATIO = 100.0


@dataclass(frozen=True, eq=False)
class SlitGeometry:
    """Slit positions, wavenumber, and the discretized detection line.

    The screen is the horizontal line y = screen_distance sampled at
    screen_positions (bin centers, uniform spacing); slits sit anywhere
    below it. Distances and positions share one arbitrary length unit;
    wavenumber is its inverse.
    """

    slit_upper: tuple[float, float]
    slit_lower: tuple[float, float]
    wavenumber: float
    screen_distance: float
    screen_positions: np.ndarray
    detector_position: tuple[float, float]

    def __post_init__(self) -> None:
        xs = np.asarray(self.screen_positions, dtype=float)
        if xs.ndim != 1 or len(xs) < 2:
            raise ValueError("screen_positions must be a 1-d array of at least 2 samples")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("screen_positions must be strictly increasing")
        xs = xs.copy()
        xs.setflags(write=False)
        object.__setattr__(self, "screen_positions", xs)
        for name in ("slit_upper", "slit_lower", "detector_position"):
            x, y = getattr(self, name)
            object.__setattr__(self, name, (float(x), float(y)))
        # The screen is increasing, so its ends bound every position.
        points = (*self.slit_upper, *self.slit_lower, *self.detector_position, xs[0], xs[-1])
        if not all(map(math.isfinite, (self.wavenumber, self.screen_distance, *points))):
            raise ValueError("wavenumber, screen distance and every coordinate must be finite")
        if self.wavenumber <= 0:
            raise ValueError("wavenumber must be positive")
        if self.slit_upper == self.slit_lower:
            raise ValueError("slits must be at distinct locations")

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi / self.wavenumber

    @property
    def slit_separation(self) -> float:
        dx = self.slit_upper[0] - self.slit_lower[0]
        dy = self.slit_upper[1] - self.slit_lower[1]
        return math.hypot(dx, dy)

    @property
    def bin_width(self) -> float:
        return float(self.screen_positions[1] - self.screen_positions[0])

    @property
    def bin_edges(self) -> np.ndarray:
        xs = self.screen_positions
        half = self.bin_width / 2.0
        return np.concatenate([xs - half, [xs[-1] + half]])

    def to_config(self) -> dict:
        return {
            "slit_upper": list(self.slit_upper),
            "slit_lower": list(self.slit_lower),
            "wavenumber": self.wavenumber,
            "screen_distance": self.screen_distance,
            "screen_min": float(self.screen_positions[0]),
            "screen_max": float(self.screen_positions[-1]),
            "bins": int(len(self.screen_positions)),
            "detector_position": list(self.detector_position),
        }


def default_geometry(bins: int = 512) -> SlitGeometry:
    """The documented default: unit slit separation, wavelength 1/20 unit,
    screen 100 units away spanning 12 fringes, detectors 200 units out."""
    return geometry_from_config({"bins": bins})


def _config_number(key: str, value) -> float:
    """``value`` as a float if it is a finite real number (a bool is not)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise ValueError(f"field 'geometry.{key}': expected a finite number, got {value!r}")


def geometry_from_config(cfg: dict) -> SlitGeometry:
    """The geometry a config such as ``SlitGeometry.to_config()`` states,
    with the documented default for each field it leaves out.

    Numbers must be finite reals, points arrays of two of them, and ``bins``
    an integer of at least 2; ``screen_min`` must be below ``screen_max``
    by enough to give ``bins`` distinct positions, ``wavenumber`` positive
    and the slits apart. Anything else, a field that ``to_config`` does not
    write included, raises ValueError naming the field as
    ``'geometry.<key>'``.
    """
    bins = cfg.get("bins", 512)
    # Checked before np.linspace, which warns on a non-finite end or span.
    if isinstance(bins, bool) or not isinstance(bins, numbers.Integral) or bins < 2:
        raise ValueError(f"field 'geometry.bins': bins must be an integer of at least 2, got {bins!r}")

    def number(key: str, default: float) -> float:
        return _config_number(key, cfg.get(key, default))

    def point(key: str, default: tuple[float, float]) -> tuple[float, float]:
        value = cfg.get(key, default)
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"field 'geometry.{key}': expected an array of 2 numbers, got {value!r}")
        return (_config_number(key, value[0]), _config_number(key, value[1]))

    lo, hi = number("screen_min", -30.0), number("screen_max", 30.0)
    if not lo < hi:
        raise ValueError(
            f"fields 'geometry.screen_min' and 'geometry.screen_max': screen_min {lo!r} must be below screen_max {hi!r}"
        )
    if not math.isfinite(hi - lo):
        raise ValueError(
            f"fields 'geometry.screen_min' and 'geometry.screen_max': the span from {lo!r} to {hi!r} must be finite"
        )
    positions = np.linspace(lo, hi, bins)
    if not np.all(np.diff(positions) > 0):
        raise ValueError(
            f"fields 'geometry.screen_min' and 'geometry.screen_max': the span from {lo!r} to {hi!r} is too small for {bins} distinct bins"
        )
    wavenumber = number("wavenumber", 2.0 * math.pi / 0.05)
    if wavenumber <= 0:
        raise ValueError(f"field 'geometry.wavenumber': must be positive, got {wavenumber!r}")
    upper, lower = point("slit_upper", (0.5, 0.0)), point("slit_lower", (-0.5, 0.0))
    if upper == lower:
        raise ValueError(
            f"fields 'geometry.slit_upper' and 'geometry.slit_lower': slits must be at distinct locations, got {list(upper)!r} for both"
        )
    g = SlitGeometry(
        slit_upper=upper,
        slit_lower=lower,
        wavenumber=wavenumber,
        screen_distance=number("screen_distance", 100.0),
        screen_positions=positions,
        detector_position=point("detector_position", (0.0, 200.0)),
    )
    unknown = sorted(set(cfg) - set(g.to_config()))
    if unknown:
        raise ValueError(f"field 'geometry.{unknown[0]}': not a geometry field")
    return g


def slit_distances(g: SlitGeometry, x) -> tuple:
    """Distances from the screen point(s) at transverse position x to each slit."""
    x = np.asarray(x, dtype=float)
    d_up = np.hypot(x - g.slit_upper[0], g.screen_distance - g.slit_upper[1])
    d_low = np.hypot(x - g.slit_lower[0], g.screen_distance - g.slit_lower[1])
    return d_up, d_low


def path_difference(g: SlitGeometry, x):
    """Slit path difference d_lower - d_upper at screen position x."""
    d_up, d_low = slit_distances(g, x)
    return d_low - d_up


def _slit_waves(g: SlitGeometry, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spherical wave exp(ik*d)/d of each slit at screen position(s) x."""
    d_up, d_low = slit_distances(g, x)
    singular = np.minimum(d_up, d_low) < 1e-12
    if singular.any():
        raise SingularPoint(f"screen position {float(x[singular][0])!r} coincides with a slit")
    return np.exp(1j * g.wavenumber * d_up) / d_up, np.exp(1j * g.wavenumber * d_low) / d_low


def double_slit_amplitude(g: SlitGeometry, x: float) -> complex:
    """Sum of the two spherical waves at one screen position."""
    psi_up, psi_low = _slit_waves(g, np.asarray(float(x)))
    return complex(psi_up + psi_low)


def slit_wave_arrays(g: SlitGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-slit spherical-wave amplitudes over all screen samples."""
    return _slit_waves(g, g.screen_positions)


def screen_density(g: SlitGeometry) -> np.ndarray:
    """Two-slit |amplitude|^2 over the screen samples."""
    psi_up, psi_low = slit_wave_arrays(g)
    return np.abs(psi_up + psi_low) ** 2


def sample_screen_hits(g: SlitGeometry, n: int, rng: RngStream) -> np.ndarray:
    """n screen positions Born-sampled from the discretized density; ``n`` is
    an integer of at least 1 (``sample_count``)."""
    if sample_count(n) < 1:
        raise ValueError("need at least one sample")
    density = screen_density(g)
    idx = rng.sample_indices(density, n)
    return g.screen_positions[idx]


def momentum_weights(d_up: float, d_low: float) -> tuple[float, float]:
    """Normalized planar-wave coefficient weights: 1/d^2 per slit.

    Exposed separately because extreme distance ratios (e.g. one slit twice
    as far as the other) cannot coexist with the far-field precondition of
    the full detector operation, yet the weighting itself is exact.
    """
    if d_up <= 0 or d_low <= 0:
        raise ValueError("distances must be positive")
    w_up = 1.0 / (d_up * d_up)
    w_low = 1.0 / (d_low * d_low)
    total = w_up + w_low
    return (w_up / total, w_low / total)


def momentum_detector_probabilities(g: SlitGeometry) -> tuple[float, float]:
    """Click probabilities of the two far-field momentum detectors.

    In the planar-wave approximation each detector's coefficient is the
    1/distance factor of its slit evaluated at the detector location, so the
    probabilities are the normalized 1/d^2 weights.
    """
    dx, dy = g.detector_position
    d_up = math.hypot(dx - g.slit_upper[0], dy - g.slit_upper[1])
    d_low = math.hypot(dx - g.slit_lower[0], dy - g.slit_lower[1])
    if min(d_up, d_low) <= FAR_FIELD_RATIO * g.slit_separation:
        raise NotFarField(
            f"detector at distance {min(d_up, d_low):.3g} is closer than "
            f"{FAR_FIELD_RATIO}x the slit separation {g.slit_separation:.3g}"
        )
    return momentum_weights(d_up, d_low)


def sample_momentum_clicks(g: SlitGeometry, n: int, rng: RngStream) -> tuple[int, int]:
    """Counts of detector-1 and detector-2 clicks over n particles; ``n`` is
    an integer, and ``RngStream.randoms`` refuses any other count before it
    draws."""
    p_up, _ = momentum_detector_probabilities(g)
    u = rng.randoms(n)
    n_up = int(np.count_nonzero(u < p_up))
    return n_up, n - n_up


def fringe_extrema(g: SlitGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Analytic extrema positions: maxima where the path difference is an
    integer number of wavelengths, minima at half-integers.

    The path difference is monotone in the screen coordinate, so each target
    value is bracketed and solved by root finding.
    """
    # Imported here so that a cold start that never calls this skips scipy.
    from scipy.optimize import brentq

    xs = g.screen_positions
    lo, hi = float(xs[0]), float(xs[-1])
    delta_lo, delta_hi = float(path_difference(g, lo)), float(path_difference(g, hi))
    d_min, d_max = min(delta_lo, delta_hi), max(delta_lo, delta_hi)
    lam = g.wavelength

    def solve(target: float) -> float:
        return brentq(lambda x: float(path_difference(g, x)) - target, lo, hi, xtol=1e-12)

    extrema = []
    for offset in (0.0, 0.5):  # maxima, then minima
        found = []
        m = math.ceil(d_min / lam - offset)
        while (m + offset) * lam <= d_max:
            found.append(solve((m + offset) * lam))
            m += 1
        extrema.append(np.asarray(found))
    return extrema[0], extrema[1]


def random_geometry(rng: RngStream) -> SlitGeometry:
    """A randomized but well-posed geometry on 256 screen bins: varied slit
    separation, wavelength, screen distance and span; detector kept far-field."""
    sep = 0.5 + 1.5 * rng.random()
    wavelength = 0.02 + 0.08 * rng.random()
    distance = 50.0 + 150.0 * rng.random()
    half_span = 10.0 + 30.0 * rng.random()
    return SlitGeometry(
        slit_upper=(sep / 2.0, 0.0),
        slit_lower=(-sep / 2.0, 0.0),
        wavenumber=2.0 * math.pi / wavelength,
        screen_distance=distance,
        screen_positions=np.linspace(-half_span, half_span, 256),
        detector_position=(0.0, FAR_FIELD_RATIO * sep + 150.0),
    )


def nearest_bins(g: SlitGeometry, positions: np.ndarray) -> np.ndarray:
    """Indices of the screen bins containing the given positions."""
    idx = search_sorted(g.bin_edges, np.asarray(positions, dtype=float)) - 1
    return np.clip(idx, 0, len(g.screen_positions) - 1)


def grid_extrema_indices(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior local maxima and minima of a sampled curve (strict one-sided)."""
    v = np.asarray(values, dtype=float)
    inner = np.arange(1, len(v) - 1)
    is_max = (v[inner] >= v[inner - 1]) & (v[inner] > v[inner + 1])
    is_min = (v[inner] <= v[inner - 1]) & (v[inner] < v[inner + 1])
    return inner[is_max], inner[is_min]
