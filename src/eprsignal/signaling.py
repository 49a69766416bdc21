"""The A-to-B channel: exact signal gaps, finite-statistics simulation,
hypothesis testing, and binary-message decoding with a capacity estimate.

A Scenario fixes one entangled state, two A-side measurement bases (the two
"letters"), and the functional observable the B side averages.  If the
observable is quadratic the two letters induce B-side ensembles with one
density matrix and the exact gap vanishes; a non-quadratic observable can
split them, which is the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import row_dot
from .observables import FunctionalObservable
from .states import Ensemble, EntangledState, conditional_ensemble, rebase_alice
from .streams import STREAM_VERSION, chunk_sizes, count_moments, substream

# Stream paths: letters 0 and 1 sample on paths 0 and 1, channel trials on 2.
_PATH_CHANNEL = 2

Z_THRESHOLD = 5.0


@dataclass(frozen=True, eq=False)
class Scenario:
    """An entangled state, two A-side bases (letters 0 and 1) given as rows,
    and the B-side observable."""

    state: EntangledState
    basis_a: np.ndarray
    basis_a_prime: np.ndarray
    observable: FunctionalObservable
    # per letter, built once: the B-side ensemble and the observable's value
    # on each of its members
    ensembles: tuple[Ensemble, ...] = field(init=False, repr=False)
    member_values: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.observable.dim != self.state.dim_b:
            raise ValueError(
                f"observable dim {self.observable.dim} does not match the B side "
                f"dim {self.state.dim_b}"
            )
        # rebasing checks each basis's span, the rebased state its
        # orthonormality; the bases kept are the rebased states' frozen rows
        rebased = tuple(
            rebase_alice(self.state, basis) for basis in (self.basis_a, self.basis_a_prime)
        )
        ensembles = tuple(conditional_ensemble(r) for r in rebased)
        values = tuple(self.observable.values(e.states) for e in ensembles)
        for v in values:
            v.setflags(write=False)
        object.__setattr__(self, "basis_a", rebased[0].alice_basis)
        object.__setattr__(self, "basis_a_prime", rebased[1].alice_basis)
        object.__setattr__(self, "ensembles", ensembles)
        object.__setattr__(self, "member_values", values)


@dataclass(frozen=True)
class SignalReport:
    """Exact averages for both letters plus optional Monte-Carlo estimates."""

    exact_fb: float
    exact_fbprime: float
    gap: float
    mc_fb: float | None = None
    mc_fbprime: float | None = None
    stderr_b: float | None = None
    stderr_bprime: float | None = None
    z: float | None = None
    n_samples: int | None = None
    seed: int | None = None
    # (n, gap, pooled standard error) after 1, 2, 4, ..., 2^j chunks and all
    convergence: tuple[tuple[int, float, float], ...] | None = None
    stream_version: int | None = None


@dataclass(frozen=True)
class ChannelReport:
    """What ``channel_capacity`` measured over ``trials`` blocks of
    ``block_length`` draws, each block sending one random letter.

    ``decision_threshold`` is the midpoint of the two exact letter means; a
    block is decoded by which side of it the block's sample mean falls.
    ``estimated_capacity_bits_per_block`` is 1 - H2(``bit_error_rate``), the
    binary-symmetric-channel capacity at the measured error rate, in bits per
    block, and 0 when the exact gap is 0.  ``stream_version`` is the random
    stream layout the trials were drawn with (``streams.STREAM_VERSION``): a
    recorded ``seed`` replays only under the same version.
    """

    block_length: int
    trials: int
    bit_error_rate: float
    estimated_capacity_bits_per_block: float
    decision_threshold: float
    seed: int | None = None
    stream_version: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.bit_error_rate <= 1.0:
            raise ValueError("bit error rate must lie in [0, 1]")


def letter_ensemble(sc: Scenario, letter: int) -> Ensemble:
    """B-side ensemble induced by measuring the letter's basis on the A side."""
    if letter not in (0, 1):
        raise ValueError("letter must be 0 or 1")
    return sc.ensembles[letter]


def exact_gap(sc: Scenario) -> SignalReport:
    """Exact averages of the observable under both letters; no sampling."""
    fb, fbprime = (
        float(np.dot(e.weights, v)) for e, v in zip(sc.ensembles, sc.member_values)
    )
    return SignalReport(exact_fb=fb, exact_fbprime=fbprime, gap=fb - fbprime)


def _shuffled(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # member i repeated counts[i] times, in an order shuffled by rng
    idx = np.repeat(np.arange(counts.size), counts)
    rng.shuffle(idx)
    return idx


def _chunk_counts(sc: Scenario, letter: int, n: int, seed: int) -> tuple:
    # The first draw of the letter's stream substream(seed, letter), and the
    # stream: the member counts of every chunk of the n samples, one row per
    # chunk.  They alone fix the statistics.  The letter is checked first, as
    # numpy would reject a negative one in substream as a bad seed entry.
    weights = letter_ensemble(sc, letter).weights
    rng = substream(seed, letter)
    return rng.multinomial(chunk_sizes(n), weights), rng


def per_sample_values(sc: Scenario, letter: int, n: int, seed: int) -> np.ndarray:
    """Observable values of exactly the draws behind ``monte_carlo_report``.

    The letter's one generator, ``substream(seed, letter)``, first draws the
    member counts of every chunk, as the report does; then each chunk's
    counts are expanded in an order the same generator shuffles, chunk by
    chunk.  The report's letter mean, and each convergence row's, equals the
    mean of the matching prefix of this array up to summation rounding.
    """
    counts, rng = _chunk_counts(sc, letter, n, seed)
    idx = np.concatenate([np.zeros(0, int), *(_shuffled(row, rng) for row in counts)])
    return sc.member_values[letter][idx]


def _letter_moments(
    sc: Scenario, letter: int, n: int, seed: int
) -> list[tuple[int, float, float]]:
    """Running (n, mean, sample variance) of f at ``count_moments``' rows."""
    counts, _ = _chunk_counts(sc, letter, n, seed)
    return count_moments(counts, sc.member_values[letter])


def _z_statistic(mean_b: float, mean_bp: float, se_b: float, se_bp: float) -> float:
    # a mean difference below summation rounding resolution is no evidence;
    # without this, a single-branch scenario (both letters emit one ray, so
    # the standard errors vanish) turns a 1-ulp difference into z = inf
    diff = abs(mean_b - mean_bp)
    scale = max(1.0, abs(mean_b), abs(mean_bp))
    if diff <= 128.0 * np.finfo(float).eps * scale:
        return 0.0
    denom = math.sqrt(se_b * se_b + se_bp * se_bp)
    if denom == 0.0:
        # constant samples at genuinely different values: unambiguous signal
        return math.inf
    return diff / denom


def monte_carlo_report(
    sc: Scenario,
    n: int,
    seed: int = 0,
    workers: int = 1,
    track_convergence: bool = False,
) -> SignalReport:
    """Simulate B's finite statistics with n samples per letter.

    The estimate is the sample average of the observable over the draws
    ``per_sample_values`` returns for (seed, letter).  Each letter draws the
    member counts of all its ``CHUNK``-sized chunks in one call on one
    generator, ``substream(seed, letter)`` (since stream version 3); the
    moments follow from the counts.  The detection statistic z compares the two
    letter means against their pooled standard error.  The convergence rows,
    when tracked, hold the gap and pooled standard error after 1, 2, 4, ...,
    2^j chunks and after the last: O(log n) rows for a log-x plot.  Replay
    ``per_sample_values`` for the gap after any other prefix.
    ``workers`` is accepted for compatibility and ignored.
    """
    if n < 2:
        raise ValueError("need at least two samples per letter")
    exact = exact_gap(sc)
    runs = [_letter_moments(sc, letter, n, seed) for letter in (0, 1)]
    (_, mean_b, var_b), (_, mean_bp, var_bp) = runs[0][-1], runs[1][-1]
    se_b, se_bp = math.sqrt(var_b / n), math.sqrt(var_bp / n)

    convergence = None
    if track_convergence:
        # both letters share one chunk partition, so their kept rows pair up
        convergence = tuple(
            (k, m0 - m1, math.sqrt(v0 / k + v1 / k))
            for (k, m0, v0), (_, m1, v1) in zip(*runs)
        )

    return SignalReport(
        exact_fb=exact.exact_fb,
        exact_fbprime=exact.exact_fbprime,
        gap=exact.gap,
        mc_fb=mean_b,
        mc_fbprime=mean_bp,
        stderr_b=se_b,
        stderr_bprime=se_bp,
        z=_z_statistic(mean_b, mean_bp, se_b, se_bp),
        n_samples=n,
        seed=seed,
        convergence=convergence,
        stream_version=STREAM_VERSION,
    )


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def channel_capacity(
    sc: Scenario,
    block_length: int,
    trials: int,
    seed: int = 0,
    workers: int = 1,
) -> ChannelReport:
    """Estimate how well B decodes one uniformly random letter per block.

    Decoder: compare the block sample mean of the observable to the midpoint
    of the two exact means.  Differences below the block's summation rounding
    scale count as ties and are broken by a fair coin, so zero-gap scenarios
    decode at chance level instead of inheriting a knife-edge float bias.
    The capacity estimate is the binary-symmetric-channel bound
    1 - H2(bit error rate), pinned to 0 when the exact gap is 0.
    Trials run in chunks of ``CHUNK`` trials whatever the block length, drawn
    in order from one generator, ``substream(seed, 2)`` (stream version 4).
    Each letter's blocks are decided where they are drawn, and a coin is
    read only for a tied block.  A block's sum of counts times member values
    is taken member by member with ``hilbert.row_dot``, bit for bit numpy's
    ``(counts * values).sum(axis=1)``, so no decision depends on that layout.
    ``workers`` is accepted for compatibility and ignored.
    """
    if block_length < 1 or trials < 1:
        raise ValueError("block length and trials must be >= 1")
    exact = exact_gap(sc)
    threshold = (exact.exact_fb + exact.exact_fbprime) / 2.0
    sign = 1.0 if exact.gap >= 0.0 else -1.0
    scale = max(1.0, abs(exact.exact_fb), abs(exact.exact_fbprime))
    tie_tol = np.finfo(float).eps * block_length * scale

    weights = [letter_ensemble(sc, letter).weights for letter in (0, 1)]
    rng = substream(seed, _PATH_CHANNEL)
    errors = 0
    for size in chunk_sizes(trials):
        # a chunk draws its letters, its tie-break coins, then the member
        # counts of every letter-0 block and of every letter-1 block
        letters = rng.integers(0, 2, size)
        coins = rng.integers(0, 2, size)
        ones = np.count_nonzero(letters)
        for letter, blocks in ((0, size - ones), (1, ones)):
            counts = rng.multinomial(block_length, weights[letter], size=blocks)
            gap = row_dot(counts, sc.member_values[letter]) / block_length - threshold
            # a block decodes to 1 when sign * gap <= 0, a tied one to its coin
            wrong = (sign * gap <= 0.0) != letter
            tie = np.abs(gap) <= tie_tol
            if tie.any():
                wrong[tie] = coins[letters == letter][tie] != letter
            errors += int(np.count_nonzero(wrong))
    ber = errors / trials
    capacity = 0.0 if exact.gap == 0.0 else 1.0 - binary_entropy(ber)
    return ChannelReport(
        block_length=block_length,
        trials=trials,
        bit_error_rate=ber,
        estimated_capacity_bits_per_block=capacity,
        decision_threshold=threshold,
        seed=seed,
        stream_version=STREAM_VERSION,
    )

