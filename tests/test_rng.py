"""Random stream determinism and derivation."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hangon import FixedStream, RngStream
from hangon.rng import _bucket_search, search_sorted
from hangon.scenarios.eraser import EraserConfig
from hangon.scenarios.geometry import default_geometry, sample_momentum_clicks, sample_screen_hits


def test_same_seed_same_sequence():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]
    np.testing.assert_array_equal(a.randoms(100), b.randoms(100))


def test_different_seeds_differ():
    assert RngStream(1).random() != RngStream(2).random()


def test_derive_is_reproducible_and_position_independent():
    root = RngStream(7)
    root.randoms(1000)  # consuming the parent must not move the children
    child_a = root.derive(3)
    child_b = RngStream(7).derive(3)
    np.testing.assert_array_equal(child_a.randoms(50), child_b.randoms(50))


def test_derived_streams_differ_from_parent_and_each_other():
    root = RngStream(7)
    d0 = root.derive(0).randoms(10)
    d1 = root.derive(1).randoms(10)
    parent = RngStream(7).randoms(10)
    assert not np.array_equal(d0, d1)
    assert not np.array_equal(d0, parent)


def test_nested_derivation_rejected():
    with pytest.raises(ValueError):
        RngStream(7).derive(0).derive(0)


def test_sample_indices_deterministic_and_supported():
    w = np.array([0.0, 0.25, 0.0, 0.75])
    idx = RngStream(5).sample_indices(w, 10_000)
    assert set(np.unique(idx)) <= {1, 3}
    np.testing.assert_array_equal(idx, RngStream(5).sample_indices(w, 10_000))
    frac = np.mean(idx == 3)
    assert abs(frac - 0.75) < 3 * np.sqrt(0.75 * 0.25 / 10_000)


@pytest.mark.parametrize(
    "weights",
    [[1.0, np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0], [1e308, 1e308], [0.0, 0.0], [1.0, -0.5]],
    ids=["nan", "inf", "minus-inf", "sum-overflows", "all-zero", "negative"],
)
def test_sample_indices_rejects_invalid_weights(weights):
    with pytest.raises(ValueError):
        RngStream(5).sample_indices(np.array(weights), 100)


def _sorted_table(kind: str, n: int, r: np.random.Generator) -> np.ndarray:
    if kind == "cdf":
        # Zero-weight bins make long runs of equal cdf values.
        w = r.random(n) * (r.random(n) < r.choice([0.05, 0.5, 1.0]))
        w[-1] += 1.0
        cdf = np.cumsum(w)
        return cdf / cdf[-1]
    if kind == "repeats":
        return np.sort(r.integers(-3, 4, n)).astype(float) * r.choice([1.0, 1e-9, 1e9])
    if kind == "grid":
        lo = r.uniform(-50.0, 50.0)
        xs = np.linspace(lo, lo + r.uniform(1e-6, 100.0), max(n - 1, 2))
        half = (xs[1] - xs[0]) / 2.0
        return np.concatenate([xs - half, [xs[-1] + half]])
    if kind == "tiny":
        return np.sort(r.random(n)) * 1e-300
    if kind == "ulps":
        # Consecutive doubles near 1.
        return 1.0 + np.sort(r.integers(0, 3 * n, n)) * np.spacing(1.0)
    # A subnormal span, whose bucket scale overflows.
    return np.sort(r.integers(0, 2 * n, n)) * 5e-324


def _keys(a: np.ndarray, n_keys: int, r: np.random.Generator) -> np.ndarray:
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308]
    span = a[-1] - a[0]
    uniform = r.uniform(a[0] - 0.1 * span, a[-1] + 0.1 * span, n_keys)
    return r.permutation(np.concatenate([a, np.nextafter(a, np.inf), np.nextafter(a, -np.inf), special, uniform]))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["cdf", "repeats", "grid", "tiny", "ulps", "subnormal"]),
    n=st.integers(1, 300),
    n_keys=st.integers(0, 2500),
    seed=st.integers(0, 2**32 - 1),
)
def test_search_sorted_equals_numpy(kind, n, n_keys, seed):
    r = np.random.default_rng(seed)
    a = _sorted_table(kind, n, r)
    keys = _keys(a, n_keys, r)
    for side in ("left", "right"):
        got, want = search_sorted(a, keys, side), np.searchsorted(a, keys, side)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    if keys.size % 2 == 0:
        grid = keys.reshape(2, -1)
        np.testing.assert_array_equal(search_sorted(a, grid, "right"), np.searchsorted(a, grid, "right"))


_SHORT_KEYS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 1e-300, -5e-324, 0.25])


@pytest.mark.parametrize("n", range(1, 9))
def test_short_table_search_equals_numpy(n):
    r = np.random.default_rng(n)
    # Ties, both infinities and both zeros, then the same table ending in NaN.
    table = np.sort(r.choice([-np.inf, -1.0, -0.0, 0.0, 0.5, 0.5, 1.0, np.inf], n))
    with_nan = np.sort(np.concatenate([table[:-1], [np.nan]]))
    keys = r.permutation(np.concatenate([_SHORT_KEYS, table, np.nextafter(table, 0.0), r.uniform(-2, 2, 40)]))
    for side in ("left", "right"):
        for a in (table, with_nan, table * 2.0):
            got, want = search_sorted(a, keys, side), np.searchsorted(a, keys, side)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_search_sorted_takes_only_a_1d_table():
    for a in (np.array([[0.0, 1.0], [2.0, 3.0]]), np.zeros((1, 64)), np.float64(1.0)):
        with pytest.raises(ValueError):
            search_sorted(a, [0.5, 0.5])


def _edges(a: np.ndarray, n_buckets: int) -> np.ndarray:
    """Bucket edges of a map from a[0] to a[-1], with their neighbours."""
    with np.errstate(all="ignore"):
        edges = a[0] + (a[-1] - a[0]) * (np.arange(n_buckets + 1) / n_buckets)
    edges = edges[np.isfinite(edges)]
    return np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])


_N = 64
_STACKS = {
    "narrow-beside-wide": [np.linspace(0.0, 1e-9, _N), np.linspace(0.0, 1e9, _N)],
    "disjoint-rows": [np.linspace(0.0, 1.0, _N), np.linspace(10.0, 11.0, _N), np.linspace(-5.0, -4.0, _N)],
    "constant-row": [np.linspace(-3.0, 7.0, _N), np.full(_N, 0.5), np.sort(np.random.default_rng(1).random(_N))],
    "infinities": [np.concatenate([[-np.inf], np.linspace(-1.0, 1.0, _N - 1)]),
                   np.concatenate([np.linspace(-1.0, 1.0, _N - 1), [np.inf]]),
                   np.linspace(-2.0, 0.5, _N)],
    "nan-row": [np.linspace(0.0, 1.0, _N), np.concatenate([np.linspace(0.25, 0.75, _N - 3), [np.nan] * 3])],
    "repeated-entries": [np.repeat(np.linspace(0.0, 1.0, _N // 4), 4), np.sort(np.tile([0.0, 0.5, 0.5, 1.0], _N // 4))],
    "stack-span-overflows": [np.linspace(-1e308, -1e307, _N), np.linspace(1e307, 1e308, _N)],
}


@pytest.mark.parametrize("name", sorted(_STACKS))
def test_stack_search_shares_one_bucket_map(name):
    """Tables of very different spans, constant tables and tables holding
    an infinity or NaN, each searched on its own with keys on its entries,
    on its own map's bucket edges and on those of the map over the whole
    set, more keys than it has buckets: each key gets np.searchsorted's
    answer."""
    tables = _STACKS[name]
    pool = [[np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308]]
    with np.errstate(invalid="ignore", over="ignore"):
        spans = [t[-1] - t[0] for t in tables]
    fine = [t for t, span in zip(tables, spans) if np.isfinite(span) and span > 0]
    if fine:
        pool.append(_edges(np.array([min(t[0] for t in fine), max(t[-1] for t in fine)]), 4 * _N))
    for table in tables:
        pool += [table, np.nextafter(table, np.inf), np.nextafter(table, -np.inf)]
    for table in fine:
        pool += [_edges(table, 4 * _N), np.random.default_rng(2).uniform(table[0], table[-1], 200)]
    keys = np.concatenate(pool)
    assert keys.size >= 4 * _N
    for table in tables:
        for side in ("left", "right"):
            np.testing.assert_array_equal(search_sorted(table, keys, side), np.searchsorted(table, keys, side))


def test_tables_off_the_map_go_to_numpy():
    """A constant table and a table ending in NaN send every key to
    np.searchsorted; a grid table's interior keys are all answered from its
    buckets."""
    grid = np.linspace(0.0, 1.0, _N)
    keys = np.random.default_rng(3).uniform(0.0, 0.9, 400)
    for table in (np.full(_N, 2.0), np.concatenate([grid[:-1], [np.nan]])):
        out = np.empty(keys.size, dtype=np.intp)
        assert _bucket_search(table, keys, "right", out).size == keys.size
    out = np.empty(keys.size, dtype=np.intp)
    assert _bucket_search(grid, keys, "right", out).size == 0
    np.testing.assert_array_equal(out, np.searchsorted(grid, keys, "right"))


_EIGHT = np.array([-1.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0])
_EIGHT_NAN = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, np.nan, np.nan])


def test_counted_eight_entry_tables_equal_numpy():
    """Tables of exactly eight entries, with repeated entries and NaN, over
    more keys than one chunk holds."""
    r = np.random.default_rng(8)
    tables = np.stack([_EIGHT, _EIGHT_NAN, _EIGHT * 2.0, -_EIGHT[::-1]])
    pool = np.concatenate([_SHORT_KEYS, tables.ravel(), np.nextafter(tables.ravel(), np.inf),
                           np.nextafter(tables.ravel(), -np.inf), [np.nan] * 5])
    keys = r.permutation(np.concatenate([np.tile(pool, 300), r.uniform(-3.0, 3.0, 5000)]))
    for side in ("left", "right"):
        for table in tables:
            np.testing.assert_array_equal(search_sorted(table, keys, side), np.searchsorted(table, keys, side))


@pytest.mark.parametrize("n", [2.7, 2.0, "3", True, False], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda rng, n: rng.randoms(n),
        lambda rng, n: rng.sample_indices([1.0, 3.0], n),
        lambda rng, n: sample_screen_hits(default_geometry(64), n, rng),
        lambda rng, n: sample_momentum_clicks(default_geometry(64), n, rng),
        lambda rng, n: EraserConfig(True, "idler_first", n, default_geometry(64), 3),
    ],
    ids=["randoms", "sample_indices", "sample_screen_hits", "sample_momentum_clicks", "EraserConfig"],
)
def test_sample_counts_must_be_integers(call, n):
    """A float, a string or a bool is refused before anything is
    drawn: the stream, part way through a block, goes on where it was."""
    rng, twin = RngStream(4), RngStream(4)
    rng.random(), twin.random()
    with pytest.raises(TypeError):
        call(rng, n)
    assert rng.random() == twin.random()
    np.testing.assert_array_equal(rng.randoms(100), twin.randoms(100))


@pytest.mark.parametrize("value", [2.7, 2.0, "3", True, False], ids=repr)
@pytest.mark.parametrize("where", ["seed", "offset", "derive"])
def test_seeds_offsets_and_derivation_indices_must_be_integers(monkeypatch, where, value):
    """A float, a string or a bool is refused with TypeError before any
    Philox generator is built: ``int()`` would make 2.7 seed 2 and True
    seed 1."""
    parent = RngStream(3)
    built = []
    real_philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args or kwargs)
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    make = {
        "seed": lambda: RngStream(value),
        "offset": lambda: RngStream(3, offset=value),
        "derive": lambda: parent.derive(value),
    }[where]
    with pytest.raises(TypeError):
        make()
    assert built == []


@pytest.mark.parametrize("where, value", [("offset", -3), ("offset", 2**128), ("derive", -1),
                                          ("derive", 2**128 - 1), ("derive", 2**128)])
def test_offsets_and_derivation_indices_out_of_range_are_refused(monkeypatch, where, value):
    """Philox's counter would wrap these onto another stream's draws:
    offset -3 draws what offset 2**128 - 3 draws, and derive(2**128 - 1)
    what the root stream draws. They raise ValueError before any Philox
    generator is built."""
    parent = RngStream(3)
    built = []
    real_philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args or kwargs)
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    with pytest.raises(ValueError):
        RngStream(3, offset=value) if where == "offset" else parent.derive(value)
    assert built == []


def test_last_offset_and_derivation_index_are_taken():
    last = RngStream(3, offset=2**128 - 1).randoms(4)
    np.testing.assert_array_equal(RngStream(3).derive(2**128 - 2).randoms(4), last)
    assert not np.array_equal(last, RngStream(3).randoms(4))


@pytest.mark.parametrize("kind", [np.int64, np.uint32, np.int8])
def test_numpy_integers_are_accepted_as_seeds_offsets_and_indices(kind):
    stream = RngStream(kind(3), offset=kind(2))
    assert (type(stream.seed), type(stream.offset)) == (int, int)
    np.testing.assert_array_equal(stream.randoms(8), RngStream(3, offset=2).randoms(8))
    np.testing.assert_array_equal(RngStream(kind(3)).derive(kind(1)).randoms(8), RngStream(3).derive(1).randoms(8))


@pytest.mark.parametrize("k", range(2, 9))
def test_sample_indices_with_few_weights_equals_binary_search(k):
    w = np.random.default_rng(k).random(k)
    w[k // 2] = 0.0
    got = RngStream(k).sample_indices(w, 20_000)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    want = np.minimum(np.searchsorted(cdf, RngStream(k).randoms(20_000), side="right"), k - 1)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_fixed_stream_replays_and_exhausts():
    fs = FixedStream([0.1, 0.9])
    assert fs.random() == 0.1
    assert fs.random() == 0.9
    with pytest.raises(IndexError):
        fs.random()


def _plain_generator(seed: int, offset: int) -> np.random.Generator:
    bitgen = np.random.Philox(key=seed)
    return np.random.Generator(bitgen.jumped(offset) if offset else bitgen)


# One call of a program: a scalar draw, n draws at once, or n inverse-CDF
# samples over a small weight vector.
_calls = st.one_of(
    st.tuples(st.just("random"), st.integers(1, 150)),
    st.tuples(st.just("randoms"), st.integers(0, 150)),
    st.tuples(st.just("sample_indices"), st.integers(1, 150)),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    derived=st.one_of(st.none(), st.integers(0, 3)),
    program=st.lists(_calls, min_size=1, max_size=12),
    weights=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6).filter(any),
)
@example(seed=9, derived=None, weights=[1.0, 3.0],
         program=[("random", 63), ("randoms", 2), ("random", 130), ("sample_indices", 70), ("random", 1)])
def test_stream_equals_plain_numpy_generator(seed, derived, program, weights):
    """Every interleaving of scalar draws, arrays and samples, including
    runs of scalar draws across several blocks, gives exactly the doubles
    of a plain Philox generator, on root and derived streams alike."""
    stream = RngStream(seed) if derived is None else RngStream(seed).derive(derived)
    plain = _plain_generator(seed, 0 if derived is None else derived + 1)
    w = np.array(weights)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    for kind, n in program:
        if kind == "random":
            got = [stream.random() for _ in range(n)]
            assert all(type(x) is float for x in got)
            assert got == [float(plain.random()) for _ in range(n)]
        elif kind == "randoms":
            got, want = stream.randoms(n), plain.random(n)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        else:
            want = np.minimum(np.searchsorted(cdf, plain.random(n), side="right"), len(w) - 1)
            np.testing.assert_array_equal(stream.sample_indices(w, n), want)
