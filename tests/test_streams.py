import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsignal.streams import count_moments


def test_count_moments_rejects_empty_counts():
    for counts in (np.zeros((0, 3), dtype=int), np.zeros((2, 3), dtype=int)):
        with pytest.raises(ValueError, match="no samples"):
            count_moments(counts, np.arange(3.0))


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
    levels=st.lists(st.integers(-1000, 1000), min_size=6, max_size=6),
    spread=st.floats(1e-3, 1e8),
    offset=st.floats(-1e8, 1e8),
    sizes=st.lists(st.integers(1, 400), min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_moments_match_two_pass_on_expanded_samples(
    weights, levels, spread, offset, sizes, seed
):
    # The variance must match to 1e-12 relative, or its root to 1e-12 of the
    # values' magnitude: the looser bound only binds when the offset dwarfs
    # the spread so far that numpy's own two-pass result loses digits.
    w = np.array(weights) / np.sum(weights)
    values = offset + spread * np.array(levels[: w.size]) / 1000.0
    rng = np.random.default_rng(seed)
    counts = np.array([rng.multinomial(size, w) for size in sizes])
    scale = float(np.abs(values).max()) or 1.0
    # the rows are kept prefixes of the chunks; each one's n names its prefix
    prefix = {n: k + 1 for k, n in enumerate(np.cumsum(sizes).tolist())}
    for n, mean, var in count_moments(counts, values):
        samples = np.repeat(values, counts[: prefix[n]].sum(axis=0))
        assert n == samples.size
        assert abs(mean - samples.mean()) <= 1e-12 * scale
        if n == 1:
            assert var == 0.0
        else:
            ref = samples.var(ddof=1)
            assert abs(var - ref) <= 1e-12 * ref + (1e-12 * scale) ** 2


def _per_chunk_moments(counts, values):
    # one row per chunk, by count_moments' own arithmetic
    cum = np.cumsum(counts, axis=0)
    n = cum.sum(axis=1)
    shift = float(cum[-1] @ values / n[-1])
    centred = values - shift
    means = (cum * centred).sum(axis=1) / n
    m2 = (cum * (centred - means[:, None]) ** 2).sum(axis=1)
    var = m2 / np.maximum(n - 1, 1)
    return list(zip(n.tolist(), (shift + means).tolist(), var.tolist()))


_CHUNK_COUNTS = [1, 2, 3, 4, 5, *(2**j + e for j in range(3, 11) for e in (0, 1))]


@settings(max_examples=200, deadline=None)
@given(
    chunks=st.sampled_from(_CHUNK_COUNTS),
    members=st.integers(1, 16),
    spread=st.floats(1e-3, 1e8),
    offset=st.floats(-1e8, 1e8),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_moments_keep_log_spaced_rows_of_the_per_chunk_series(
    chunks, members, spread, offset, seed
):
    rng = np.random.default_rng(seed)
    values = offset + spread * rng.standard_normal(members)
    sizes = rng.integers(1, 400, size=chunks)
    counts = np.array([rng.multinomial(size, rng.dirichlet(np.ones(members)))
                       for size in sizes])
    kept = count_moments(counts, values)
    # the first 1, 2, 4, ..., 2^j chunks and all of them
    prefixes = [c for c in range(1, chunks + 1) if c & (c - 1) == 0 or c == chunks]
    assert [n for n, _, _ in kept] == np.cumsum(sizes)[np.array(prefixes) - 1].tolist()
    full = {row[0]: row for row in _per_chunk_moments(counts, values)}
    for row in kept:
        assert row == full[row[0]]
