"""Reference values computed apart from hangon.

Nothing here calls into hangon: the dense Born calculator works on the
amplitude arrays the benchmark generated before handing them to the program,
the EPR and partial-pair values are closed forms, the eraser detector
frequencies come from spherical waves evaluated here with numpy, and the
two-sample chi-square test uses scipy's distribution directly.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

# Closed forms for the singlet and the partially determining pair (eq9).
EPR_P_ANTI = 0.5  # P(+-) = P(-+) = 1/2, P(++) = P(--) = 0
PAIR_P_X = 2.0 / 3.0
PAIR_P_A_GIVEN_X = 0.5
PAIR_P_Y_B = 0.0

# Which slit path each idler detector couples to, with the beam splitter in
# and out; every detector carries a quarter of the discrete state's weight.
ERASER_PATHS = {
    True: {"D1": ("U", "L"), "D2": ("U", "L"), "D3": ("L",), "D4": ("U",)},
    False: {"D1": ("U",), "D2": ("L",), "D3": ("L",), "D4": ("U",)},
}
ERASER_QUARTER = 0.25


class DenseState:
    """Born weights of a state given as a dense amplitude array.

    ``labels[i]`` names the labels of subsystem i in array order; amplitudes
    need not be normalised.
    """

    def __init__(self, labels: list[tuple[str, ...]], amplitudes: np.ndarray):
        if amplitudes.shape != tuple(len(l) for l in labels):
            raise ValueError("amplitude array shape does not match the label sets")
        weights = np.abs(amplitudes) ** 2
        self.labels = labels
        self.weights = weights / weights.sum()
        self._index = [{lab: k for k, lab in enumerate(ls)} for ls in labels]

    def weight(self, allowed: list[set[str]]) -> float:
        """Born weight of the event "subsystem i shows a label in allowed[i]"."""
        idx = [sorted(self._index[i][lab] for lab in a) for i, a in enumerate(allowed)]
        if any(not ix for ix in idx):
            return 0.0
        return float(self.weights[np.ix_(*idx)].sum())

    def joint(
        self, observables: list[tuple[int, dict[str, tuple[str, ...]]]]
    ) -> dict[tuple[str, ...], float]:
        """Joint distribution of a sequence of projective observables, each
        given as (subsystem index, outcome class -> labels)."""
        out = {}
        for combo in product(*(list(classes) for _, classes in observables)):
            allowed = [set(ls) for ls in self.labels]
            for (sub, classes), cls in zip(observables, combo):
                allowed[sub] &= set(classes[cls])
            out[combo] = self.weight(allowed)
        return out

    def positive_prefixes(
        self, observables: list[tuple[int, dict[str, tuple[str, ...]]]]
    ) -> int:
        """Number of (outcome combination, step) pairs whose prefix up to and
        including that step has positive weight: the observations a forced
        walk over every combination makes."""
        total = 0
        for combo in product(*(list(classes) for _, classes in observables)):
            allowed = [set(ls) for ls in self.labels]
            for (sub, classes), cls in zip(observables, combo):
                allowed[sub] &= set(classes[cls])
                if self.weight(allowed) <= 0.0:
                    break
                total += 1
        return total


def slit_overlap(
    xs: np.ndarray,
    slit_upper: tuple[float, float],
    slit_lower: tuple[float, float],
    wavenumber: float,
    screen_distance: float,
) -> float:
    """Re<u|l> of the unit-normalised per-slit spherical waves exp(ikd)/d
    sampled at the screen positions xs."""
    waves = []
    for sx, sy in (slit_upper, slit_lower):
        d = np.hypot(xs - sx, screen_distance - sy)
        w = np.exp(1j * wavenumber * d) / d
        waves.append(w / np.linalg.norm(w))
    return float(np.real(np.vdot(waves[0], waves[1])))


def eraser_detector_frequencies(bs_present: bool, overlap: float) -> dict[str, float]:
    """Sampled detector frequencies of the discretised eraser.

    The discrete state gives every detector a quarter. With the beam
    splitter in, D1 and D2 see (U +/- L)/sqrt(8), so the residual overlap of
    the sampled slit modes moves a share overlap/4 from D2 to D1; D1 + D2
    stays one half.
    """
    if not bs_present:
        return {d: ERASER_QUARTER for d in ("D1", "D2", "D3", "D4")}
    return {
        "D1": ERASER_QUARTER * (1.0 + overlap),
        "D2": ERASER_QUARTER * (1.0 - overlap),
        "D3": ERASER_QUARTER,
        "D4": ERASER_QUARTER,
    }


def two_sample_chi_square_p(a: np.ndarray, b: np.ndarray, min_pool: float = 10.0) -> float:
    """p-value of the two-sample chi-square homogeneity test between two
    count tables; cells with fewer than min_pool counts together are pooled
    into one."""
    from scipy.stats import chi2

    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    big = a + b >= min_pool
    ca = np.append(a[big], a[~big].sum())
    cb = np.append(b[big], b[~big].sum())
    keep = ca + cb > 0
    ca, cb = ca[keep], cb[keep]
    na, nb = ca.sum(), cb.sum()
    stat = float(np.sum((nb * ca - na * cb) ** 2 / (na * nb * (ca + cb))))
    return float(chi2.sf(stat, max(len(ca) - 1, 1)))


def within_sigmas(count: int, n: int, p: float, k: float = 5.0) -> bool:
    """Is count/n within k binomial standard errors of p?"""
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return abs(count / n - p) <= k * sigma
