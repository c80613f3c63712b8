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
search for most keys. It takes one sorted table. A table of 64 entries or
more, searched for at least four keys per entry, reads most keys from a
bucket table: a monotone function of the value places the table's entries
and the keys alike, so an entry in a lower bucket than a key is below the
key, one in a higher bucket is above it, and only the entries in the key's
own bucket need comparing. Every case the buckets do not cover falls back to
``np.searchsorted``: a bucket with two or more entries, NaN keys, a table
without a finite positive span or holding NaN, shorter tables, and calls with
fewer keys than buckets.
"""
from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

# Keys are looked up in chunks of this many, so the temporaries stay small.
_CHUNK = 1 << 14
# Below this table length a binary search is already short.
_MIN_TABLE = 64
# Each offset step jumps 2**128 draws along Philox's 2**256-draw counter, so
# only offsets below this keep the substreams disjoint.
_OFFSETS = 1 << 128
# RngStream.random draws this many doubles at a time. A stream that makes
# only a few draws pays for the whole block, so it stays small.
_BLOCK = 64


def _integer(n, what: str) -> int:
    """``n`` as an ``int``: a float, a string or a bool raises TypeError.

    ``operator.index`` alone would take a bool as 0 or 1, so a bool is
    refused first, as ``Schedule.counts`` does."""
    if isinstance(n, bool):
        raise TypeError(f"{what} must be an integer, not a bool")
    return operator.index(n)


def sample_count(n) -> int:
    """``n`` as an ``int``; a float, a string or a bool raises TypeError."""
    return _integer(n, "sample count")


def search_sorted(a: np.ndarray, keys, side: str = "left") -> np.ndarray:
    """``np.searchsorted(a, keys, side)`` for a sorted 1-d float array ``a``.

    A table of ``_MIN_TABLE`` entries or more, searched for at least as many
    keys as it has buckets, answers key ``k`` from buckets. With ``K = 4 * n``
    buckets and ``s = K / (a[-1] - a[0])``, a key goes to bucket ``b(k) =
    clip(floor((k - a[0]) * s), 0, K - 1)``. The subtraction, the product,
    the clip and the floor are each monotone in IEEE arithmetic (an overflow
    to infinity included), so ``b`` is monotone, and computing it the same
    way for the entries gives: every entry in a bucket below ``b(k)`` is less
    than ``k``, and every entry in a bucket above it is greater. The answer
    is therefore the number of entries in lower buckets plus the count of
    entries in the key's own bucket that sort before it, which is one
    comparison when that bucket holds at most one entry. Keys whose bucket
    holds two or more entries and all keys in the top bucket (where NaN keys
    land) are answered by ``np.searchsorted``. So is every key when ``s`` is
    not finite and positive (a table holding NaN or an infinity, or without
    a positive span), when the table is shorter or the keys fewer.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    a = np.asarray(a, dtype=float)
    keys = np.asarray(keys, dtype=float)
    if a.ndim != 1:
        raise ValueError("a must be a 1-d table")
    if a.size < _MIN_TABLE or keys.size < 4 * a.size:
        return np.searchsorted(a, keys, side)
    flat = keys.ravel()
    out = np.empty(flat.size, dtype=np.intp)
    missed = _bucket_search(a, flat, side, out)
    if missed.size:
        out[missed] = np.searchsorted(a, flat[missed], side)
    return out.reshape(keys.shape)


def _bucket_search(a, flat, side, out) -> np.ndarray:
    """Fill ``out`` from the table's buckets; return the positions of the
    keys left to ``np.searchsorted`` (their ``out`` entries are negative)."""
    n = a.size
    nb = 4 * n
    top = float(nb - 1)
    lo = a[0]
    before = np.less if side == "left" else np.less_equal

    def bucket(x, t, out):
        np.subtract(x, lo, out=t)
        np.multiply(t, scale, out=t)
        np.fmin(t, top, out=t)  # fmin also sends NaN to the top bucket
        np.fmax(t, 0.0, out=t)
        np.copyto(out, t, casting="unsafe")  # truncation is floor on [0, top]
        return out

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        scale = nb / (a[-1] - lo)
        if not (np.isfinite(scale) and scale > 0):
            return np.arange(flat.size)
        width = np.bincount(bucket(a, np.empty(n), np.empty(n, dtype=np.intp)), minlength=nb)
        # first[b]: how many entries lie in the buckets below b.
        first = np.zeros(nb, dtype=np.intp)
        np.cumsum(width[:-1], out=first[1:])
        # The one entry a bucket compares its keys against (a later one, or
        # +inf, when it holds none). Buckets left to np.searchsorted (two or
        # more entries, and the top one, which NaN keys share) get a
        # negative start, so their keys come out negative.
        entry = np.append(a, np.inf)[first]
        first[width >= 2] = -2
        first[-1] = -2

        t, b, hit = np.empty(_CHUNK), np.empty(_CHUNK, dtype=np.intp), np.empty(_CHUNK, dtype=bool)
        missed = []
        for i in range(0, flat.size, _CHUNK):
            k, r = flat[i:i + _CHUNK], out[i:i + _CHUNK]
            m = k.size
            bucket(k, t[:m], b[:m])
            np.take(first, b[:m], out=r, mode="clip")
            np.take(entry, b[:m], out=t[:m], mode="clip")
            r += before(t[:m], k, out=hit[:m])
            if r.min() < 0:
                missed.append(np.flatnonzero(r < 0) + i)
    return np.concatenate(missed) if missed else np.empty(0, dtype=np.intp)


class RngStream:
    """A seeded Philox stream; ``derive`` hands out disjoint substreams.

    A seed or offset that is not an integer (a float, a string or a bool)
    raises TypeError, and an offset outside ``[0, 2**128)`` ValueError,
    before any generator is built: Philox's counter would wrap it onto
    another offset's draws. ``_block`` holds the
    drawn but not yet served doubles, last one first, so ``random`` serves
    the next with one ``list.pop``.
    """

    __slots__ = ("seed", "offset", "_gen", "_block")

    def __init__(self, seed: int, offset: int = 0):
        self.seed = _integer(seed, "seed")
        self.offset = _integer(offset, "offset")
        if not 0 <= self.offset < _OFFSETS:
            raise ValueError("offset must be in [0, 2**128)")
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
        """n uniform draws in [0, 1); the rest of ``random``'s block first.

        A count that is not an integer raises TypeError before anything is
        drawn (``sample_count``)."""
        n = sample_count(n)
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
        An index that is not an integer raises TypeError, and one outside
        ``[0, 2**128 - 1)`` ValueError: its offset would wrap onto another
        stream's draws.
        """
        if self.offset:
            raise ValueError("cannot derive from an already-derived stream")
        index = _integer(index, "derivation index")
        if not 0 <= index < _OFFSETS - 1:
            raise ValueError("derivation index must be in [0, 2**128 - 1)")
        return RngStream(self.seed, offset=index + 1)

    def sample_indices(self, weights: np.ndarray, n: int) -> np.ndarray:
        """n indices sampled from a discrete distribution via inverse CDF.

        The weights must be finite and non-negative with a positive, finite
        sum, and ``n`` an integer, as ``randoms`` takes it.
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
