"""Deterministic random streams and pooled moments.

Every randomized scan partitions its work into fixed-size chunks; chunk k
draws from an independent stream derived from (seed, *path, k) and results
merge in chunk order.  Chunks run serially: a thread pool over them ran every
command slower at 2 workers than at 1, since each chunk is a few short numpy
calls under the interpreter lock.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Samples (or witnesses, trials, ...) per chunk.  Fixed: changing it changes
# which stream produces which draw and breaks replay of recorded seeds.
CHUNK = 8192

# Layout of the channel's streams (what each chunk draws, in which order), as
# recorded in simulate and capacity reports; bumped when old seeds stop replaying.
STREAM_VERSION = 2


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


def pool_mean_var(partials: Sequence[tuple[int, float, float]]) -> list[tuple]:
    """Running (n, mean, sample variance; 0 when n < 2) of chunks 0..k, merged
    from per-chunk (n, mean, M2), M2 the sum of squared deviations, by the
    pairwise update of Chan, Golub & LeVeque (Am. Stat. 37:242, 1983), which
    subtracts no large sums of squares."""
    if not partials:
        raise ValueError("no samples to pool")
    out = []
    n, mean, m2 = 0, 0.0, 0.0
    for pn, pmean, pm2 in partials:
        n += pn
        frac = pn / n  # exactly 1 for the first chunk, which it copies
        delta = pmean - mean
        mean += delta * frac
        m2 += pm2 + delta * delta * (n - pn) * frac
        out.append((n, mean, m2 / (n - 1) if n >= 2 else 0.0))
    return out


def count_moments(counts: np.ndarray, values: np.ndarray) -> list:
    """``pool_mean_var`` of chunks, chunk k having drawn ``values[i]`` ``counts[k, i]``
    times.  Each chunk's (n, mean, M2) follows exactly from its counts.  Both steps
    run on values shifted by the overall sample mean, so their rounding error
    does not grow with the values' common offset."""
    shift = float((counts.sum(axis=0) * values).sum() / counts.sum())
    centred = values - shift
    n = counts.sum(axis=1)
    means = (counts * centred).sum(axis=1) / n
    m2 = (counts * (centred - means[:, None]) ** 2).sum(axis=1)
    partials = list(zip(n.tolist(), means.tolist(), m2.tolist()))
    return [(k, shift + mean, var) for k, mean, var in pool_mean_var(partials)]
