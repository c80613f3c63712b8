"""Random stream determinism and derivation."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hangon import FixedStream, RngStream
from hangon.rng import search_sorted


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


def _per_row_searchsorted(tables, keys, side, rows):
    want = np.empty(keys.shape, dtype=np.intp)
    for q, table in enumerate(tables):
        want[rows == q] = np.searchsorted(table, keys[rows == q], side)
    return want


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["cdf", "repeats", "grid", "tiny", "ulps", "subnormal"]), min_size=1, max_size=5),
    n=st.integers(1, 300),
    n_keys=st.integers(0, 2500),
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_table_search_equals_numpy_per_row(kinds, n, n_keys, seed):
    r = np.random.default_rng(seed)
    # Rows must be equally long, and a grid table has at least 3 entries.
    tables = np.stack([_sorted_table(kind, n, r)[:n] for kind in kinds])
    keys = np.concatenate([_keys(table, n_keys, r) for table in tables])
    rows = r.integers(0, len(tables), keys.size)
    shapes = [keys.shape] + ([(2, keys.size // 2)] if keys.size % 2 == 0 else [])
    for shape in shapes:
        k, q = keys.reshape(shape), rows.reshape(shape)
        for side in ("left", "right"):
            got, want = search_sorted(tables, k, side, rows=q), _per_row_searchsorted(tables, k, side, q)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)


_SHORT_KEYS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 1e-300, -5e-324, 0.25])


@pytest.mark.parametrize("n", range(1, 9))
def test_short_table_search_equals_numpy(n):
    r = np.random.default_rng(n)
    # Ties, both infinities and both zeros, then the same table ending in NaN.
    table = np.sort(r.choice([-np.inf, -1.0, -0.0, 0.0, 0.5, 0.5, 1.0, np.inf], n))
    with_nan = np.sort(np.concatenate([table[:-1], [np.nan]]))
    keys = r.permutation(np.concatenate([_SHORT_KEYS, table, np.nextafter(table, 0.0), r.uniform(-2, 2, 40)]))
    for side in ("left", "right"):
        for a in (table, with_nan):
            got, want = search_sorted(a, keys, side), np.searchsorted(a, keys, side)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        tables = np.stack([table, with_nan, table * 2.0])
        rows = r.integers(0, 3, keys.size)
        np.testing.assert_array_equal(search_sorted(tables, keys, side, rows=rows),
                                      _per_row_searchsorted(tables, keys, side, rows))


def test_search_sorted_rejects_bad_rows():
    tables = np.array([[0.0, 1.0], [2.0, 3.0]])
    for rows in ([0, 2], [-1, 0], [0]):
        with pytest.raises(ValueError):
            search_sorted(tables, [0.5, 0.5], rows=np.array(rows))
    with pytest.raises(ValueError):
        search_sorted(tables, [0.5, 0.5])


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
