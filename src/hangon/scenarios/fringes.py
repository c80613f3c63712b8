"""Fringe histograms and the estimators used to verify them.

Visibility is measured at analytically located extrema bins: the mean bin
mass over the maxima versus the minima, (max-min)/(max+min), with a
delta-method standard error under Poisson counting. Fringe-free claims are
tested with a fixed-frequency oscillation fit: regress counts on an
envelope and envelope-modulated cos/sin at the known fringe phase, and ask
whether the fitted oscillation amplitude is consistent with zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SlitGeometry, nearest_bins

# Cells of a two-sample chi-square test whose combined count falls below this
# are pooled into one remainder cell.
MIN_POOL = 10


@dataclass(frozen=True, eq=False)
class FringeHistogram:
    """Counts per screen bin."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts)
        if len(edges) != len(counts) + 1:
            raise ValueError("need one more bin edge than count")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        edges = edges.copy()
        edges.setflags(write=False)
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def histogram_from_positions(g: SlitGeometry, positions: np.ndarray) -> FringeHistogram:
    counts = np.bincount(nearest_bins(g, positions), minlength=len(g.screen_positions))
    return FringeHistogram(g.bin_edges, counts)


def visibility(values: np.ndarray, max_bins: np.ndarray, min_bins: np.ndarray) -> float:
    """(mean at maxima - mean at minima) / (sum), over located extrema bins."""
    v = np.asarray(values, dtype=float)
    hi = float(v[max_bins].mean())
    lo = float(v[min_bins].mean())
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def visibility_stderr(
    counts: np.ndarray, max_bins: np.ndarray, min_bins: np.ndarray
) -> float:
    """Delta-method standard error of the visibility estimator, treating the
    per-bin counts as independent Poisson."""
    c = np.asarray(counts, dtype=float)
    hi = float(c[max_bins].mean())
    lo = float(c[min_bins].mean())
    var_hi = max(float(c[max_bins].sum()), 1.0) / len(max_bins) ** 2
    var_lo = max(float(c[min_bins].sum()), 1.0) / len(min_bins) ** 2
    denom = (hi + lo) ** 2
    if denom == 0.0:
        return float("inf")
    d_hi = 2.0 * lo / denom
    d_lo = 2.0 * hi / denom
    return math.sqrt(d_hi * d_hi * var_hi + d_lo * d_lo * var_lo)


def screen_visibility(
    g: SlitGeometry,
    maxima: np.ndarray,
    minima: np.ndarray,
    density: np.ndarray,
    counts: np.ndarray,
) -> tuple[float, float, float]:
    """Visibility of an analytic density and of sampled counts at the bins
    nearest the given extrema positions: (analytic, sampled, stderr)."""
    max_bins, min_bins = nearest_bins(g, maxima), nearest_bins(g, minima)
    return (
        visibility(density, max_bins, min_bins),
        visibility(counts, max_bins, min_bins),
        visibility_stderr(counts, max_bins, min_bins),
    )


def oscillation_fit(
    counts: np.ndarray, envelope: np.ndarray, phase: np.ndarray
) -> tuple[float, float]:
    """Fitted fringe amplitude and its standard error, relative to the envelope.

    Least-squares fit of counts ~ b0*envelope + b1*envelope*cos(phase)
    + b2*envelope*sin(phase); returns (hypot(b1, b2)/b0, sigma/b0) so the
    amplitude reads as a fringe contrast. For fringe-free data the contrast
    is consistent with zero.
    """
    y = np.asarray(counts, dtype=float)
    env = np.asarray(envelope, dtype=float)
    ph = np.asarray(phase, dtype=float)
    X = np.column_stack([env, env * np.cos(ph), env * np.sin(ph)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = len(y) - 3
    s2 = float(resid @ resid) / max(dof, 1)
    cov = s2 * np.linalg.inv(X.T @ X)
    b0 = float(coef[0])
    if b0 == 0.0:
        return 0.0, float("inf")
    amp = math.hypot(float(coef[1]), float(coef[2])) / abs(b0)
    sigma = math.sqrt(float(cov[1, 1]) + float(cov[2, 2])) / abs(b0)
    return amp, sigma


def chi_square_two_sample(
    counts_a: np.ndarray, counts_b: np.ndarray
) -> tuple[float, int, float]:
    """Two-sample chi-square homogeneity test over matching cells.

    Cells whose combined count falls below ``MIN_POOL`` are pooled into one
    remainder cell. Returns (statistic, dof, p_value).
    """
    # Imported here so that a cold start that never calls this skips scipy.
    from scipy.stats import chi2

    a = np.asarray(counts_a, dtype=float).ravel()
    b = np.asarray(counts_b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("count tables must have identical shape")
    big = a + b >= MIN_POOL
    cells_a, cells_b = a[big], b[big]
    if not big.all():
        cells_a = np.append(cells_a, a[~big].sum())
        cells_b = np.append(cells_b, b[~big].sum())
    n_a, n_b = sum(cells_a.tolist()), sum(cells_b.tolist())
    if n_a == 0 or n_b == 0:
        raise ValueError("each sample needs at least one count")
    tot = cells_a + cells_b
    used = tot > 0
    terms = (n_b * cells_a[used] - n_a * cells_b[used]) ** 2 / (n_a * n_b * tot[used])
    stat = sum(terms.tolist(), 0.0)
    dof = max(int(used.sum()) - 1, 1)
    return stat, dof, float(chi2.sf(stat, dof))
