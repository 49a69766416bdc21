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
    for k, (n, mean, var) in enumerate(count_moments(counts, values)):
        samples = np.repeat(values, counts[: k + 1].sum(axis=0))
        assert n == samples.size
        assert abs(mean - samples.mean()) <= 1e-12 * scale
        if n == 1:
            assert var == 0.0
        else:
            ref = samples.var(ddof=1)
            assert abs(var - ref) <= 1e-12 * ref + (1e-12 * scale) ** 2
