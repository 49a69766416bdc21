"""Deterministic random streams and pooled moments.

Every randomized scan partitions its work into fixed-size chunks and merges
results in chunk order.  A stream is a generator derived from a (seed, *path)
address.  The certifiers give chunk k its own address (seed, *path, k), so
one witness replays without the chunks before it.  The channel draws all
chunks of one letter, or all channel trials, from one generator in chunk
order: building a generator costs more than a chunk's draws.  Since stream
version 4 a channel chunk is ``CHUNK`` trials whatever the block length.
"""

from __future__ import annotations

import numpy as np

# Samples (or witnesses, trials, ...) per chunk.  Fixed: changing it changes
# which stream produces which draw and breaks replay of recorded seeds.
CHUNK = 8192

# Layout of the channel's streams (what each chunk draws, in which order), as
# recorded in simulate and capacity reports; bumped when old seeds stop replaying.
# 3: one generator per letter and one for the channel trials, not one per chunk.
# 4: capacity chunks hold CHUNK trials, not CHUNK // block; simulate unchanged.
STREAM_VERSION = 4


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (seed, path) address."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.default_rng([int(seed), *[int(p) for p in path]])


def chunk_sizes(total: int, chunk: int = CHUNK) -> list[int]:
    """Sizes of the fixed partition of ``total`` items."""
    if total < 0:
        raise ValueError("total must be non-negative")
    out = [chunk] * (total // chunk)
    if total % chunk:
        out.append(total % chunk)
    return out


def count_moments(counts: np.ndarray, values: np.ndarray) -> list[tuple[int, float, float]]:
    """Running (n, mean, sample variance; 0 when n < 2) of the first 1, 2, 4,
    ..., 2^j chunks and of all k chunks, chunk i having drawn ``values[m]``
    ``counts[i, m]`` times: O(log k) rows.

    Every row follows exactly from the cumulative counts of its prefix by a
    two-pass sum, so no row inherits the rounding of the rows before it, and
    each row sums on its own, so its bits do not depend on which rows are
    kept.  Both passes run on values shifted by the overall sample mean, so
    their rounding error does not grow with the values' common offset.
    """
    cum = np.cumsum(counts, axis=0)
    if cum.size == 0 or cum[0].sum() < 1:
        raise ValueError("no samples to pool")
    k = len(cum)
    cum = cum[sorted({k - 1, *(2**j - 1 for j in range(k.bit_length()))})]
    n = cum.sum(axis=1)
    shift = float(cum[-1] @ values / n[-1])
    centred = values - shift
    means = (cum * centred).sum(axis=1) / n
    m2 = (cum * (centred - means[:, None]) ** 2).sum(axis=1)
    var = m2 / np.maximum(n - 1, 1)
    return list(zip(n.tolist(), (shift + means).tolist(), var.tolist()))
