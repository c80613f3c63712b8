"""Deterministic random streams for Born-rule sampling.

All randomness flows through ``RngStream``, a thin wrapper around numpy's
Philox counter-based bit generator: identical seed plus identical call
sequence reproduces identical outcomes bit-for-bit, independent of platform.
Child streams are derived by counter offsetting (Philox ``jumped`` strides of
2^128 draws), so a run can hand out non-overlapping per-task streams from one
master seed.

Inverse-CDF sampling looks each uniform draw up with ``search_sorted``, which
returns exactly what ``np.searchsorted`` returns but reads most keys from a
bucket table in a few array passes instead of a binary search. It is exact
because its bucket map is monotone: every floating-point step in it is, so an
entry in a lower bucket than a key is below the key, one in a higher bucket is
above it, and only the entries in the key's own bucket need comparing. Every
case the table does not cover (a bucket with two or more entries, NaN keys,
short tables, few keys, a table without a finite positive span) falls back to
``np.searchsorted`` itself.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

# Keys are bucketed in chunks of this many, so the temporaries stay small.
_CHUNK = 1 << 14
# Below this table length a binary search is already short.
_MIN_TABLE = 64


def search_sorted(a: np.ndarray, keys, side: str = "left") -> np.ndarray:
    """``np.searchsorted(a, keys, side)`` for a sorted float array ``a``.

    Each key ``k`` goes to bucket ``b(k) = clip(floor((k - a[0]) * s), 0,
    K - 1)`` with ``K = 4 * len(a)`` and ``s = K / (a[-1] - a[0])``. The
    subtraction, the product, the clip and the floor are each monotone in
    IEEE arithmetic (an overflow to infinity included), so ``b`` is monotone,
    and computing it the same way for the entries of ``a`` gives: every entry
    in a bucket below ``b(k)`` is less than ``k``, and every entry in a bucket
    above it is greater. The answer is therefore the number of entries in
    lower buckets plus the count of entries in the key's own bucket that sort
    before it, which is one comparison when that bucket holds at most one
    entry. Keys whose bucket holds two or more entries, and all keys in the
    top bucket (where NaN keys land), are answered by ``np.searchsorted``; so
    is the whole call when ``a`` is short, there are fewer keys than buckets,
    or ``a[-1] - a[0]`` is not a finite positive span.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a = np.asarray(a, dtype=float)
    keys = np.asarray(keys, dtype=float)
    nb = 4 * len(a)
    with np.errstate(all="ignore"):
        scale = nb / (a[-1] - a[0]) if len(a) >= _MIN_TABLE else np.nan
    if keys.size < nb or not (np.isfinite(scale) and scale > 0):
        return np.searchsorted(a, keys, side)
    before = np.less if side == "left" else np.less_equal
    lo, top = a[0], float(nb - 1)

    def bucket(x, t, out):
        np.subtract(x, lo, out=t)
        np.multiply(t, scale, out=t)
        np.fmin(t, top, out=t)  # fmin also sends NaN to the top bucket
        np.fmax(t, 0.0, out=t)
        np.copyto(out, t, casting="unsafe")  # truncation is floor on [0, top]
        return out

    with np.errstate(over="ignore"):
        entry_bucket = bucket(a, np.empty(len(a)), np.empty(len(a), dtype=np.intp))
        width = np.bincount(entry_bucket, minlength=nb)
        first = np.zeros(nb, dtype=np.intp)
        np.cumsum(width[:-1], out=first[1:])
        # The one entry a bucket compares its keys against (a later one, or
        # +inf, when it holds none). Buckets left to np.searchsorted (two or
        # more entries, or the top one, which NaN keys share) get a negative
        # start, so their keys come out negative.
        entry = np.append(a, np.inf)[first]
        first[width >= 2] = -2
        first[-1] = -2

        flat = keys.ravel()
        out = np.empty(flat.size, dtype=np.intp)
        t, b, hit = np.empty(_CHUNK), np.empty(_CHUNK, dtype=np.intp), np.empty(_CHUNK, dtype=bool)
        for i in range(0, flat.size, _CHUNK):
            k = flat[i:i + _CHUNK]
            m, r = k.size, out[i:i + _CHUNK]
            bucket(k, t[:m], b[:m])
            np.take(first, b[:m], out=r, mode="clip")
            np.take(entry, b[:m], out=t[:m], mode="clip")
            r += before(t[:m], k, out=hit[:m])
            if r.min() < 0:
                miss = r < 0
                r[miss] = np.searchsorted(a, k[miss], side)
    return out.reshape(keys.shape)


class RngStream:
    """A seeded Philox stream; ``derive`` hands out disjoint substreams."""

    __slots__ = ("seed", "offset", "_gen")

    def __init__(self, seed: int, offset: int = 0):
        self.seed = int(seed)
        self.offset = int(offset)
        bitgen = np.random.Philox(key=self.seed)
        if self.offset:
            bitgen = bitgen.jumped(self.offset)
        self._gen = np.random.Generator(bitgen)

    def random(self) -> float:
        """One uniform draw in [0, 1)."""
        return float(self._gen.random())

    def randoms(self, n: int) -> np.ndarray:
        """n uniform draws in [0, 1)."""
        return self._gen.random(int(n))

    def derive(self, index: int) -> "RngStream":
        """Independent substream ``index``, offset by (index+1)*2^128 draws.

        Derivation is anchored to the seed, not to this stream's current
        position, so derive(i) is reproducible regardless of how many draws
        were consumed. Only single-level derivation is supported: deriving
        from a derived stream would re-enter the parent's counter space.
        """
        if self.offset:
            raise ValueError("cannot derive from an already-derived stream")
        if index < 0:
            raise ValueError("derivation index must be non-negative")
        return RngStream(self.seed, offset=index + 1)

    def sample_indices(self, weights: np.ndarray, n: int) -> np.ndarray:
        """n indices sampled from a discrete distribution via inverse CDF.

        The weights must be finite and non-negative with a positive, finite sum.
        """
        w = np.asarray(weights, dtype=float)
        with np.errstate(over="ignore"):
            cdf = np.cumsum(w)
        if (w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w < 0) or not w.any()
                or not np.isfinite(cdf[-1])):
            raise ValueError("weights must be a finite, non-negative 1-d array with positive, finite sum")
        cdf /= cdf[-1]
        idx = search_sorted(cdf, self.randoms(n), side="right")
        return np.minimum(idx, len(w) - 1)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, offset={self.offset})"


class FixedStream:
    """Preset uniform draws; used to steer sampling onto a chosen branch."""

    __slots__ = ("_values", "_pos")

    def __init__(self, values: Sequence[float]):
        self._values = [float(v) for v in values]
        self._pos = 0

    def random(self) -> float:
        if self._pos >= len(self._values):
            raise IndexError("FixedStream exhausted")
        v = self._values[self._pos]
        self._pos += 1
        return v
