"""Deterministic random streams for Born-rule sampling.

All randomness flows through ``RngStream``, a thin wrapper around numpy's
Philox counter-based bit generator: identical seed plus identical call
sequence reproduces identical outcomes bit-for-bit, independent of platform.
Child streams are derived by counter offsetting (Philox ``jumped`` strides of
2^128 draws), so a run can hand out non-overlapping per-task streams from one
master seed.

Scalar draws come from a block: ``random`` pops the next double from a
list that one ``Generator.random(_BLOCK)`` call filled, which is several
times cheaper per draw than a scalar ``Generator.random()`` call. The
doubles are the same: numpy builds each from the stream's next 64 bits, so
``random(n)`` equals n scalar calls. ``randoms`` serves what is left of the
block before drawing more, so every interleaving of ``random``, ``randoms``
and ``sample_indices`` yields exactly the doubles of unbuffered calls.

Inverse-CDF sampling looks each uniform draw up with ``search_sorted``, which
returns exactly what ``np.searchsorted`` returns, key by key, without a binary
search for most keys. It takes one sorted table or a stack of equal-length
sorted tables with a row index per key, so the idler-first eraser finds every
photon's screen bin in its own detector's cdf in one call. A table of at most
eight entries is answered by counting the entries that sort before each key,
with the comparison NumPy's NaN-last order uses. A longer table reads most
keys from a bucket table. That is exact because each row's bucket map is
monotone: every floating-point step in it is, so an entry in a lower bucket
than a key is below the key, one in a higher bucket is above it, and only the
entries in the key's own bucket need comparing. Every case neither path
covers falls back to ``np.searchsorted`` on the key's own row: a bucket with
two or more entries, NaN keys, a row without a finite positive span or
holding NaN, tables of 9 to 63 entries, and calls with fewer keys than
buckets.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

# Keys are looked up in chunks of this many, so the temporaries stay small.
_CHUNK = 1 << 14
# Up to this table length, counting the entries before each key is cheapest.
_MAX_COUNTED = 8
# Below this table length a binary search is already short.
_MIN_TABLE = 64
# RngStream.random draws this many doubles at a time. A stream that makes
# only a few draws pays for the whole block, so it stays small.
_BLOCK = 64


def search_sorted(a: np.ndarray, keys, side: str = "left", rows=None) -> np.ndarray:
    """``np.searchsorted(a, keys, side)`` for a sorted float array ``a``.

    With ``rows``, ``a`` is a 2-d stack of sorted tables and ``rows`` holds
    one row index per key: key ``i`` gets ``np.searchsorted(a[rows[i]],
    keys[i], side)``.

    A table of at most ``_MAX_COUNTED`` entries without NaN answers key ``k``
    with the number of entries ``e`` for which ``k < e`` (side "right") or
    ``k <= e`` (side "left") is false. That is NumPy's NaN-last order: a
    NaN key counts every entry.

    A longer table answers key ``k`` from buckets: in row ``r``, ``k`` goes
    to bucket ``b(k) = clip(floor((k - a[r, 0]) * s[r]), 0, K - 1)`` with
    ``K = 4 * len(a[r])`` and ``s[r] = K / (a[r, -1] - a[r, 0])``, offset by
    ``r * K``. The subtraction, the product, the clip and the floor are each
    monotone in IEEE arithmetic (an overflow to infinity included), so ``b``
    is monotone, and computing it the same way for the entries of row ``r``
    gives: every entry in a bucket below ``b(k)`` is less than ``k``, and
    every entry in a bucket above it is greater. The answer is therefore the
    number of the row's entries in lower buckets plus the count of entries in
    the key's own bucket that sort before it, which is one comparison when
    that bucket holds at most one entry. Keys whose bucket holds two or more
    entries, all keys in a row's top bucket (where NaN keys land) and all keys
    of a row without a finite positive span ``a[r, -1] - a[r, 0]`` are
    answered by ``np.searchsorted`` on their row; so is the whole call when
    the tables have 9 to 63 entries or there are fewer keys than buckets.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a = np.asarray(a, dtype=float)
    keys = np.asarray(keys, dtype=float)
    if rows is None:
        if a.ndim != 1:
            raise ValueError("a must be a 1-d table when rows is not given")
        tables = a[None]
    else:
        tables = a
        rows = np.asarray(rows, dtype=np.intp)
        if tables.ndim != 2 or rows.shape != keys.shape:
            raise ValueError("rows needs a 2-d stack of tables and one row index per key")
        if rows.size and (rows.min() < 0 or rows.max() >= len(tables)):
            raise ValueError("row index out of range")
    flat = keys.ravel()
    row_of = None if rows is None else rows.ravel()
    out = np.empty(flat.size, dtype=np.intp)
    n_rows, n = tables.shape
    if n <= _MAX_COUNTED:
        missed = _count_before(tables, flat, row_of, side, out)
    elif n >= _MIN_TABLE and flat.size >= n_rows * 4 * n:
        missed = _bucket_search(tables, flat, row_of, side, out)
    elif row_of is None:
        return np.searchsorted(a, keys, side)
    else:
        missed = np.arange(flat.size)
    if missed.size:
        if row_of is None:
            out[missed] = np.searchsorted(tables[0], flat[missed], side)
        else:
            _searchsorted_by_row(tables, flat, row_of, side, out, missed)
    return out.reshape(keys.shape)


def _searchsorted_by_row(tables, flat, row_of, side, out, missed) -> None:
    """``np.searchsorted`` for the keys at positions ``missed``, grouped by row."""
    by_row = missed[np.argsort(row_of[missed], kind="stable")]
    row_ids, starts = np.unique(row_of[by_row], return_index=True)
    for q, idx in zip(row_ids, np.split(by_row, starts[1:])):
        out[idx] = np.searchsorted(tables[q], flat[idx], side)


def _count_before(tables, flat, row_of, side, out) -> np.ndarray:
    """Fill ``out`` with the count of entries sorting before each key, for
    tables of at most ``_MAX_COUNTED`` entries; return the positions of the
    keys whose row holds NaN, which are left to ``np.searchsorted``."""
    has_nan = np.isnan(tables).any(axis=1)
    if row_of is None and has_nan[0]:
        return np.arange(flat.size)
    n = tables.shape[1]
    key_first = np.less if side == "right" else np.less_equal
    hit = np.empty(min(flat.size, _CHUNK), dtype=bool)
    col = np.empty(hit.size)
    for i in range(0, flat.size, _CHUNK):
        k, r = flat[i:i + _CHUNK], out[i:i + _CHUNK]
        m = k.size
        r.fill(0)
        for j in range(n):
            if row_of is None:
                entry = tables[0, j]
            else:
                entry = np.take(tables[:, j], row_of[i:i + _CHUNK], out=col[:m], mode="wrap")
            r += key_first(k, entry, out=hit[:m])
        # The entries the key sorts at or before are the ones not before it.
        np.subtract(n, r, out=r)
    if not has_nan.any():
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(has_nan[row_of])


def _bucket_search(tables, flat, row_of, side, out) -> np.ndarray:
    """Fill ``out`` from each row's bucket table; return the positions of the
    keys left to ``np.searchsorted`` (their ``out`` entries are negative)."""
    n_rows, n = tables.shape
    nb = 4 * n
    top = float(nb - 1)
    lo = tables[:, 0]
    with np.errstate(all="ignore"):
        scale = nb / (tables[:, -1] - lo)
    # A row without a finite positive span gets a NaN scale, which sends
    # all its keys to its top bucket, and so to np.searchsorted.
    scale[~(np.isfinite(scale) & (scale > 0))] = np.nan
    before = np.less if side == "left" else np.less_equal

    def bucket(x, lo, scale, t, out):
        np.subtract(x, lo, out=t)
        np.multiply(t, scale, out=t)
        np.fmin(t, top, out=t)  # fmin also sends NaN to the top bucket
        np.fmax(t, 0.0, out=t)
        np.copyto(out, t, casting="unsafe")  # truncation is floor on [0, top]
        return out

    with np.errstate(invalid="ignore", over="ignore"):
        entry_bucket = bucket(tables, lo[:, None], scale[:, None],
                              np.empty(tables.shape), np.empty(tables.shape, dtype=np.intp))
        entry_bucket += np.arange(n_rows)[:, None] * nb
        width = np.bincount(entry_bucket.ravel(), minlength=n_rows * nb).reshape(n_rows, nb)
        # first[r, b]: how many of row r's entries lie in its buckets below b.
        first = np.zeros((n_rows, nb), dtype=np.intp)
        np.cumsum(width[:, :-1], axis=1, out=first[:, 1:])
        # The one entry a bucket compares its keys against (a later one in
        # its row, or +inf, when it holds none). Buckets left to
        # np.searchsorted (two or more entries, or the top one, which NaN
        # keys share) get a negative start, so their keys come out negative.
        padded = np.concatenate([tables, np.full((n_rows, 1), np.inf)], axis=1)
        entry = np.take_along_axis(padded, first, axis=1).ravel()
        first[width >= 2] = -2
        first[:, -1] = -2
        first = first.ravel()

        t, b, hit = np.empty(_CHUNK), np.empty(_CHUNK, dtype=np.intp), np.empty(_CHUNK, dtype=bool)
        if row_of is not None:
            lo_k, scale_k, base = np.empty(_CHUNK), np.empty(_CHUNK), np.empty(_CHUNK, dtype=np.intp)
        missed = []
        for i in range(0, flat.size, _CHUNK):
            k, r = flat[i:i + _CHUNK], out[i:i + _CHUNK]
            m = k.size
            if row_of is None:
                bucket(k, lo[0], scale[0], t[:m], b[:m])
            else:
                rk = row_of[i:i + _CHUNK]
                # The rows were checked to be in range, so "wrap" never wraps;
                # it is the cheapest mode of np.take.
                lo_r = np.take(lo, rk, out=lo_k[:m], mode="wrap")
                bucket(k, lo_r, np.take(scale, rk, out=scale_k[:m], mode="wrap"), t[:m], b[:m])
                np.multiply(rk, nb, out=base[:m])
                b[:m] += base[:m]
            np.take(first, b[:m], out=r, mode="clip")
            np.take(entry, b[:m], out=t[:m], mode="clip")
            r += before(t[:m], k, out=hit[:m])
            if r.min() < 0:
                missed.append(np.flatnonzero(r < 0) + i)
    return np.concatenate(missed) if missed else np.empty(0, dtype=np.intp)


class RngStream:
    """A seeded Philox stream; ``derive`` hands out disjoint substreams.

    ``_block`` holds the drawn but not yet served doubles, last one first,
    so ``random`` serves the next with one ``list.pop``.
    """

    __slots__ = ("seed", "offset", "_gen", "_block")

    def __init__(self, seed: int, offset: int = 0):
        self.seed = int(seed)
        self.offset = int(offset)
        bitgen = np.random.Philox(key=self.seed)
        if self.offset:
            bitgen = bitgen.jumped(self.offset)
        self._gen = np.random.Generator(bitgen)
        self._block: list[float] = []

    def random(self) -> float:
        """One uniform draw in [0, 1).

        Served from a block of ``_BLOCK`` draws that one ``Generator.random``
        call fills when the last block runs out. That is exact: each double
        takes the stream's next 64 bits whichever way the calls split, so
        the block holds the next ``_BLOCK`` scalar draws.
        """
        try:
            return self._block.pop()
        except IndexError:
            block = self._block = self._gen.random(_BLOCK).tolist()
            block.reverse()
            return block.pop()

    def randoms(self, n: int) -> np.ndarray:
        """n uniform draws in [0, 1); the rest of ``random``'s block first."""
        n = int(n)
        block = self._block
        if not block or n <= 0:
            return self._gen.random(n)
        served = block[: -n - 1 : -1]
        del block[len(block) - len(served) :]
        if len(served) == n:
            return np.array(served)
        return np.concatenate((served, self._gen.random(n - len(served))))

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
    """Preset uniform draws, in order, for tests and callers that pick the
    draws a sampler sees. The engine does not use it: ``force_observe``
    names its class to ``observe`` instead of steering a draw."""

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
