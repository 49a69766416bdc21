import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsignal import (
    EntangledState,
    Scenario,
    channel_capacity,
    exact_gap,
    monte_carlo_report,
    power,
    quadratic,
)
from eprsignal import signaling
from eprsignal.signaling import binary_entropy, per_sample_values
from eprsignal.streams import CHUNK

from helpers import (
    E0,
    E1,
    MINUS,
    PLUS,
    PROJ0_2,
    bell_power_scenario,
    bell_quadratic_scenario,
    bell_state,
    projector_matrix,
    random_hermitian,
    random_scenario,
)


def test_states_and_scenarios_compare_by_identity():
    # their fields are arrays, which have no single truth value, so equality
    # and hashing go by identity
    scenario = bell_power_scenario()
    for a in (scenario, scenario.state, scenario.ensembles[0]):
        assert a == a
        assert a != copy.copy(a)
        assert hash(a) == hash(a)
    assert scenario != bell_power_scenario()


def test_scenario_rejects_wrong_span():
    # A-side span is {e0, e1} inside a 3-dim A space; the second basis
    # reaches into e2 and must be refused
    f0 = np.array([1, 0, 0], dtype=complex)
    f1 = np.array([0, 1, 0], dtype=complex)
    f2 = np.array([0, 0, 1], dtype=complex)
    s = 1 / np.sqrt(2)
    state = EntangledState([s, s], [f0, f1], [E0, E1])
    with pytest.raises(ValueError):
        Scenario(
            state=state,
            basis_a=[f0, f1],
            basis_a_prime=[f0, f2],
            observable=quadratic(np.eye(2, dtype=complex)),
        )


def test_scenario_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        Scenario(
            state=bell_state(),
            basis_a=[E0, E1],
            basis_a_prime=[PLUS, MINUS],
            observable=quadratic(np.eye(3, dtype=complex)),
        )


def test_exact_gap_bell_power_hand_values():
    report = exact_gap(bell_power_scenario())
    assert report.exact_fb == pytest.approx(0.5, abs=1e-12)
    assert report.exact_fbprime == pytest.approx(0.25, abs=1e-12)
    assert report.gap == pytest.approx(0.25, abs=1e-12)


def test_exact_gap_same_basis_is_exactly_zero():
    sc = bell_power_scenario()
    same = Scenario(sc.state, sc.basis_a, sc.basis_a, sc.observable)
    assert exact_gap(same).gap == 0.0


def test_exact_gap_quadratic_random_scenarios():
    rng = np.random.default_rng(30)
    for _ in range(100):
        da = int(rng.integers(2, 6))
        db = int(rng.integers(2, 6))
        n = int(rng.integers(1, da + 1))
        sc = random_scenario(quadratic(random_hermitian(db, rng)), da, n, rng)
        assert abs(exact_gap(sc).gap) < 1e-10


def test_sample_sequence_frequencies():
    # letter 0 leaves B in E0 or E1 with weight 1/2 each; f is 1 on E0 only
    sc = bell_power_scenario()
    values = per_sample_values(sc, 0, 100000, 31)
    freq = np.mean(values == sc.observable(E0))
    assert freq == pytest.approx(0.5, abs=0.01)


def test_sample_sequence_small_and_deterministic():
    sc = bell_power_scenario()
    one = per_sample_values(sc, 1, 1, 32)
    assert len(one) == 1
    a = per_sample_values(sc, 0, 50, 33)
    b = per_sample_values(sc, 0, 50, 33)
    assert np.array_equal(a, b)


def test_sample_sequence_of_no_draws_and_a_bad_letter():
    sc = bell_power_scenario()
    none = per_sample_values(sc, 0, 0, 34)
    assert none.dtype == float and none.shape == (0,)
    for letter in (-1, 2):
        with pytest.raises(ValueError, match="^letter must be 0 or 1$"):
            per_sample_values(sc, letter, 10, 34)


def test_monte_carlo_detects_bell_power_signal():
    report = monte_carlo_report(bell_power_scenario(), 100000, seed=7)
    assert report.z > 5.0
    assert report.mc_fb - report.mc_fbprime == pytest.approx(0.25, abs=0.01)
    assert report.gap == pytest.approx(0.25, abs=1e-12)


def test_monte_carlo_quadratic_stays_quiet():
    for seed in (0, 1, 2, 3):
        report = monte_carlo_report(bell_quadratic_scenario(), 100000, seed=seed)
        assert report.z < 4.0


def test_monte_carlo_minimum_samples():
    report = monte_carlo_report(bell_power_scenario(), 2, seed=0)
    assert report.n_samples == 2
    assert report.stderr_b >= 0.0


def test_monte_carlo_consistency_with_exact():
    # mc means concentrate on the exact means: 6-sigma band over seeded runs
    sc = bell_power_scenario()
    misses = 0
    for seed in range(100):
        r = monte_carlo_report(sc, 10000, seed=seed)
        pooled = np.hypot(r.stderr_b, r.stderr_bprime)
        gap_mc = r.mc_fb - r.mc_fbprime
        if abs(gap_mc - r.gap) > 6.0 * pooled:
            misses += 1
    assert misses <= 1


def test_monte_carlo_workers_bit_identical():
    sc = bell_power_scenario()
    a = monte_carlo_report(sc, 30000, seed=5, workers=1)
    b = monte_carlo_report(sc, 30000, seed=5, workers=4)
    assert a == b


@pytest.mark.parametrize("c", [1e7, 1e8])
def test_monte_carlo_quadratic_quiet_at_large_offset(c):
    # diag(1 + c, c) is quadratic, so no signal at any c; a (sum, sum of
    # squares) merge cancels catastrophically here and reports stderr 0
    sc = bell_quadratic_scenario()
    offset = Scenario(sc.state, sc.basis_a, sc.basis_a_prime,
                      quadratic(np.diag([1.0 + c, c]).astype(complex)))
    report = monte_carlo_report(offset, 100000, seed=0)
    assert report.stderr_b > 0.0
    assert report.z < 5.0


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30000),
    block=st.integers(1, 60),
    trials=st.integers(1, 2000),
)
def test_reports_independent_of_worker_count(seed, n, block, trials):
    rng = np.random.default_rng(seed)
    sc = random_scenario(power(projector_matrix(3), 2), 3, 3, rng)
    mc = [monte_carlo_report(sc, n, seed=seed, workers=w, track_convergence=True)
          for w in (1, 2, 3)]
    assert mc[0] == mc[1] == mc[2]
    ch = [channel_capacity(sc, block, trials, seed=seed, workers=w) for w in (1, 2, 3)]
    assert ch[0] == ch[1] == ch[2]


def test_per_sample_values_match_report_mean():
    sc = bell_power_scenario()
    report = monte_carlo_report(sc, 20000, seed=9)
    vals = per_sample_values(sc, 0, 20000, seed=9)
    assert vals.shape == (20000,)
    assert vals.mean() == pytest.approx(report.mc_fb, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40000),
    dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    kind=st.sampled_from(["power", "quadratic"]),
)
def test_per_sample_values_reproduce_every_convergence_row(seed, n, dims, kind):
    # the dump's draws are exactly the report's: the first n_k values of each
    # letter give row k's gap, and all n give the letter means
    dim_a, dim_b = dims
    rng = np.random.default_rng(seed)
    f = (power(projector_matrix(dim_b), 2) if kind == "power"
         else quadratic(random_hermitian(dim_b, rng)))
    sc = random_scenario(f, dim_a, int(rng.integers(1, dim_a + 1)), rng)
    report = monte_carlo_report(sc, n, seed=seed, track_convergence=True)
    vals = [per_sample_values(sc, letter, n, seed) for letter in (0, 1)]
    scale = max(1.0, *(float(np.abs(v).max()) for v in sc.member_values))
    assert all(v.shape == (n,) for v in vals)
    for n_k, gap, _ in report.convergence:
        assert abs(vals[0][:n_k].mean() - vals[1][:n_k].mean() - gap) <= 1e-12 * scale
    assert abs(vals[0].mean() - report.mc_fb) <= 1e-12 * scale
    assert abs(vals[1].mean() - report.mc_fbprime) <= 1e-12 * scale


def test_convergence_series_shape():
    report = monte_carlo_report(bell_power_scenario(), 20000, seed=4,
                                track_convergence=True)
    ns = [row[0] for row in report.convergence]
    assert ns[-1] == 20000
    assert ns == sorted(ns)


def test_convergence_rows_are_log_spaced_at_1e8_samples():
    # 12,208 chunks: rows after 1, 2, 4, ..., 8,192 chunks and after all
    report = monte_carlo_report(bell_power_scenario(), 10**8, seed=4,
                                track_convergence=True)
    assert len(report.convergence) == 15
    assert [row[0] for row in report.convergence] == [
        *(CHUNK * 2**j for j in range(14)), 10**8]


def test_channel_bell_power_decodes_cleanly():
    ch = channel_capacity(bell_power_scenario(), 1000, 200, seed=11)
    assert ch.bit_error_rate < 0.01
    assert ch.estimated_capacity_bits_per_block > 0.9
    assert ch.decision_threshold == pytest.approx(0.375, abs=1e-12)


def test_channel_quadratic_is_chance_level():
    ch = channel_capacity(bell_quadratic_scenario(), 1000, 1000, seed=12)
    assert 0.4 < ch.bit_error_rate < 0.6
    assert ch.estimated_capacity_bits_per_block < 0.02


def test_channel_exact_zero_gap_pins_capacity():
    sc = bell_power_scenario()
    same = Scenario(sc.state, sc.basis_a, sc.basis_a, sc.observable)
    ch = channel_capacity(same, 100, 300, seed=13)
    assert ch.estimated_capacity_bits_per_block == 0.0
    assert 0.35 < ch.bit_error_rate < 0.65


def test_channel_single_sample_constant_observable():
    sc = bell_power_scenario()
    const = Scenario(
        sc.state, sc.basis_a, sc.basis_a_prime,
        quadratic(np.eye(2, dtype=complex)),
    )
    ch = channel_capacity(const, 1, 1000, seed=14)
    assert 0.45 < ch.bit_error_rate < 0.55


def test_channel_error_rate_monotone_in_block_length():
    # statistically non-increasing, 2-sigma slack on each difference
    sc = bell_power_scenario()
    bers = [
        channel_capacity(sc, n, 1000, seed=15).bit_error_rate
        for n in (10, 100, 1000)
    ]
    slack = 2.0 * np.sqrt(2.0 * 0.25 / 1000)
    assert bers[1] <= bers[0] + slack
    assert bers[2] <= bers[1] + slack


def test_channel_workers_bit_identical():
    sc = bell_power_scenario()
    a = channel_capacity(sc, 200, 300, seed=16, workers=1)
    b = channel_capacity(sc, 200, 300, seed=16, workers=4)
    assert a == b


def test_channel_draws_two_count_arrays_per_chunk_whatever_the_block(monkeypatch):
    # stream version 4: a chunk is CHUNK trials and draws one multinomial
    # per letter, so the count of draws does not grow with the block length
    calls = []

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def multinomial(self, *args, **kwargs):
            calls.append(args)
            return self.rng.multinomial(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    substream = signaling.substream
    monkeypatch.setattr(signaling, "substream",
                        lambda seed, *path: CountingGenerator(substream(seed, *path)))
    sc = bell_power_scenario()
    for block, trials, draws in ((10, CHUNK + 5, 4), (10_000, 3, 2)):
        calls.clear()
        channel_capacity(sc, block, trials, seed=17)
        assert len(calls) == draws


# the exact bit error rate of the block-10 decoder on bell-power: letter 1's
# members all give f = 1/4, below the threshold 3/8, so it always decodes;
# letter 0's give f = 1 or 0 w.p. 1/2 each, and a block with k <= 3 ones
# decodes wrongly: P(k <= 3) = 176/1024, and letter 0 is sent half the time
_BELL_BER_BLOCK_10 = 176 / 2048


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_channel_error_rate_matches_the_exact_value(seed):
    trials = 20_000
    ber = channel_capacity(bell_power_scenario(), 10, trials, seed=seed).bit_error_rate
    sigma = np.sqrt(_BELL_BER_BLOCK_10 * (1.0 - _BELL_BER_BLOCK_10) / trials)
    assert abs(ber - _BELL_BER_BLOCK_10) <= 5.0 * sigma


def _power_letters(members: int) -> Scenario:
    # letters of `members` members each, with random weights and values
    observable = power(PROJ0_2, 2)
    return random_scenario(observable, members, members, np.random.default_rng(members))


# block-10 decoder errors over 2 chunks and 100 trials at seed 25, as stream
# version 4 draws them: letters of 3 members, of 9 (past numpy's 8-entry
# switch to a pairwise row sum), and bell-quadratic's zero gap, where every
# letter-1 block ties and is decoded by its coin
@pytest.mark.parametrize("scenario, members, errors", [
    (lambda: _power_letters(3), 3, 3922),
    (lambda: _power_letters(9), 9, 6575),
    (bell_quadratic_scenario, 2, 8308),
], ids=["members-3", "members-9", "bell-quadratic-ties"])
def test_channel_error_count_is_pinned(scenario, members, errors):
    sc = scenario()
    assert [len(v) for v in sc.member_values] == [members, members]
    trials = 2 * CHUNK + 100
    ch = channel_capacity(sc, 10, trials, seed=25)
    assert ch.bit_error_rate == errors / trials


def test_simulate_draws_are_unchanged_by_the_channel_layout():
    # the values simulate gave at stream version 3; version 4 changed only
    # capacity's chunks, so they hold exactly
    report = monte_carlo_report(bell_power_scenario(), 100_000, seed=7)
    assert report.mc_fb == 0.49932
    assert report.mc_fbprime == 0.2500000000000001
    assert report.stderr_b == 0.0015811452735924561
    assert report.z == 157.6831706510623


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        binary_entropy(1.5)
