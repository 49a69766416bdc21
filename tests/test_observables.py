import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsignal import (
    Ensemble,
    FunctionalObservable,
    certify,
    combine,
    custom,
    polarization_reconstruct,
    power,
    quadratic,
)
from eprsignal.hilbert import random_pure_batch

from helpers import (
    E0,
    E1,
    PLUS,
    PROJ0_2,
    builtin_observables,
    counting,
    ensemble_average,
    ensemble_density,
    random_hermitian,
    random_projector,
    random_pure,
)


def test_quadratic_basics():
    f = quadratic(np.eye(2, dtype=complex))
    assert f(E0) == pytest.approx(1.0)
    assert f(PLUS) == pytest.approx(1.0)
    g = quadratic(PROJ0_2)
    assert g(PLUS) == pytest.approx(0.5)



def test_observables_compare_by_identity():
    # the matrices field holds arrays, which have no single truth value or hash,
    # so equality and hashing go by identity
    f = quadratic(np.eye(3))
    assert f == f
    assert f != quadratic(np.eye(3))
    assert hash(f) == hash(f)

def test_quadratic_extremes_are_eigenvalues():
    # the functional's range over the sphere is the spectrum's hull
    f = quadratic(np.diag([0.7, 0.2]).astype(complex))
    assert f(E0) == pytest.approx(0.7)
    assert f(E1) == pytest.approx(0.2)
    rng = np.random.default_rng(0)
    vals = [f(random_pure(2, rng)) for _ in range(200)]
    assert 0.2 - 1e-12 <= min(vals) and max(vals) <= 0.7 + 1e-12


def test_quadratic_rejects_non_hermitian():
    with pytest.raises(ValueError):
        quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_power_values():
    f = power(PROJ0_2, 2)
    assert f(E0) == pytest.approx(1.0)
    assert f(PLUS) == pytest.approx(0.25)
    assert power(np.eye(2, dtype=complex), 5)(PLUS) == pytest.approx(1.0)


def test_power_rejects_small_exponent():
    with pytest.raises(ValueError):
        power(PROJ0_2, 1)


def test_ensemble_average_hand_cases():
    f = power(PROJ0_2, 2)
    single = Ensemble(np.array([1.0]), [PLUS])
    assert ensemble_average(f, single) == pytest.approx(f(PLUS))
    z_mix = Ensemble(np.array([0.5, 0.5]), [E0, E1])
    assert ensemble_average(f, z_mix) == pytest.approx(0.5)
    x_mix = Ensemble(
        np.array([0.5, 0.5]), [PLUS, np.array([1, -1], dtype=complex) / np.sqrt(2)]
    )
    assert ensemble_average(f, x_mix) == pytest.approx(0.25)


def test_ensemble_average_dim_mismatch():
    f = power(PROJ0_2, 2)
    with pytest.raises(ValueError):
        ensemble_average(f, Ensemble(np.array([1.0]), [[1, 0, 0]]))


def test_average_is_linear_in_the_observable():
    rng = np.random.default_rng(1)
    f = quadratic(random_hermitian(3, rng))
    g = power(np.diag([1.0, 0, 0]).astype(complex), 2)
    states = [random_pure(3, rng) for _ in range(4)]
    w = rng.random(4)
    ens = Ensemble(w / w.sum(), states)
    lhs = ensemble_average(combine([2.0, -0.5], [f, g]), ens)
    rhs = 2.0 * ensemble_average(f, ens) - 0.5 * ensemble_average(g, ens)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_combination_of_quadratics_stays_quadratic():
    rng = np.random.default_rng(2)
    f = quadratic(random_hermitian(3, rng))
    g = quadratic(random_hermitian(3, rng))
    h = combine([1.5, -2.0], [f, g])
    assert h.kind == "quadratic"
    np.testing.assert_allclose(
        h.matrices[0], 1.5 * f.matrices[0] - 2.0 * g.matrices[0], atol=1e-14)


def test_combination_of_polynomials_is_their_polynomial():
    # the parts' matrices side by side, each term scaled by its part's
    # coefficient; its values are the parts' sum bit for bit, and a custom
    # part makes the combination custom
    f = combine([1.0, 0.5], [quadratic(PROJ0_2), power(PROJ0_2, 2)])
    assert f.kind == "polynomial" and len(f.matrices) == 2
    assert f.terms == ((1.0, (0,)), (0.5, (1, 1)))
    assert combine([2.0], [f]).terms == ((2.0, (0,)), (1.0, (1, 1)))
    assert combine([1.0], [power(PROJ0_2, 3)]).kind == "power"
    psis = random_pure_batch(100, 2, np.random.default_rng(9))
    parts = quadratic(PROJ0_2).values(psis) + 0.5 * power(PROJ0_2, 2).values(psis)
    assert f.values(psis).tobytes() == parts.tobytes()
    twin = custom(power(PROJ0_2, 2).values, 2, batch=True)
    assert combine([1.0, 0.5], [quadratic(PROJ0_2), twin]).kind == "custom"


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 6),
    shape=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                   min_size=1, max_size=3),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_polynomial_values_match_a_custom_evaluation(d, shape, log_scale, seed):
    # sum_i c_i prod_j <psi|M_ij|psi> over three random Hermitian matrices,
    # from one kernel call and from an opaque evaluator of the same
    # expression, one state at a time: equal within 1e-12 scale, with
    # scale = sum_i |c_i| prod_j ||M_ij||_2
    rng = np.random.default_rng(seed)
    matrices = tuple(10.0**log_scale * random_hermitian(d, rng) for _ in range(3))
    terms = tuple((float(c), tuple(f)) for c, f in zip(rng.uniform(-2, 2, len(shape)), shape))
    f = FunctionalObservable(dim=d, matrices=matrices, terms=terms)

    def expression(batch):
        t = [[np.vdot(psi, m @ psi).real for m in matrices] for psi in batch]
        return [sum(c * math.prod(ts[j] for j in fs) for c, fs in terms) for ts in t]

    twin = FunctionalObservable(dim=d, _values=expression)
    norms = [np.linalg.norm(m, 2) for m in matrices]
    scale = sum(abs(c) * math.prod(norms[j] for j in fs) for c, fs in terms)
    psis = random_pure_batch(50, d, rng)
    assert np.max(np.abs(f.values(psis) - twin.values(psis))) <= 1e-12 * scale


def test_quadratic_average_matches_density_trace():
    # bridge between the ensemble average and the density-matrix picture
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        f = quadratic(random_hermitian(d, rng))
        k = int(rng.integers(1, 5))
        w = rng.random(k)
        ens = Ensemble(w / w.sum(), [random_pure(d, rng) for _ in range(k)])
        via_trace = np.trace(f.matrices[0] @ ensemble_density(ens).mat).real
        assert ensemble_average(f, ens) == pytest.approx(via_trace, abs=1e-10)


def test_ray_invariance_of_every_builtin():
    rng = np.random.default_rng(4)
    for dim in (2, 3):
        for entry in builtin_observables(dim):
            for _ in range(100):
                psi = random_pure(dim, rng)
                theta = rng.uniform(0, 2 * np.pi)
                delta = abs(entry.observable(np.exp(1j * theta) * psi) - entry.observable(psi))
                assert delta < 1e-12, entry.name


def test_custom_rejects_phase_sensitive_evaluator():
    with pytest.raises(ValueError):
        custom(lambda psi: float(psi[0].real), dim=2)


def test_counting_accepts_projector_power_rejects_unbounded():
    counting(power(PROJ0_2, 2))
    with pytest.raises(ValueError):
        counting(quadratic(2.0 * np.eye(2, dtype=complex)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), k=st.integers(2, 5))
def test_counting_flag_accepts_projector_powers(seed, d, k):
    p = random_projector(d, np.random.default_rng(seed))
    for f in (quadratic(p), power(p, k)):
        assert counting(f).counting and not f.counting


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 5),
    c=st.one_of(st.floats(-100.0, -1e-3), st.floats(1.0 + 1e-3, 100.0)),
)
def test_counting_flag_rejects_values_outside_unit_interval(d, c):
    f = quadratic(c * np.eye(d, dtype=complex))
    with pytest.raises(ValueError, match=r"leaves \[0, 1\]"):
        counting(f)
    with pytest.raises(ValueError, match=r"leaves \[0, 1\]"):
        counting(combine([c], [power(np.eye(d, dtype=complex), 2)]))


def test_counting_range_of_a_matrix_is_exact():
    # f(e_0) = 1.5, which a sample of 1000 Haar states does not reach at d = 24
    spike = np.diag([1.5] + [0.0] * 23).astype(complex)
    with pytest.raises(ValueError, match=r"observable range \[0\.0, 1\.5\] leaves \[0, 1\]"):
        counting(quadratic(spike))
    # t^2 on [-0.5, 1] lies in [0, 1]; on [-1.2, 1] it reaches 1.44 and has
    # its minimum at t = 0, and t^3 on [-0.5, 0.5] falls to -0.125
    counting(power(np.diag([1.0, -0.5, 0.0]).astype(complex), 2))
    for matrix, k, shown in (([1.0, -1.2, 0.0], 2, r"\[0\.0, 1\.44\]"),
                             ([0.5, -0.5, 0.0], 3, r"\[-0\.125, 0\.125\]")):
        with pytest.raises(ValueError, match=rf"observable range {shown} leaves \[0, 1\]"):
            counting(power(np.diag(matrix).astype(complex), k))


def test_counting_range_of_several_terms_is_sampled():
    # with more than one term or matrix the range is sampled, as a custom
    # observable's: (t + t^2)/2 of the d = 24 spike is 1.875 at e_0, which
    # 1000 Haar states do not reach, and 5 |psi_0|^2 |psi_1|^2 in d = 2,
    # 1.25 at |+>, is found above 1
    spike = np.diag([1.5] + [0.0] * 23).astype(complex)
    assert counting(combine([0.5, 0.5], [quadratic(spike), power(spike, 2)])).counting
    product = FunctionalObservable(dim=2, matrices=(PROJ0_2, np.eye(2) - PROJ0_2),
                                   terms=((5.0, (0, 1)),))
    with pytest.raises(ValueError, match=r"leaves \[0, 1\]"):
        counting(product)


def test_counting_custom_observable_is_still_sampled():
    # a custom observable has no matrix: its range is sampled, and a value
    # above 1 on most states is found
    f = custom(lambda psi: 2.0 * abs(psi[0]) ** 2, dim=3)
    with pytest.raises(ValueError, match=r"leaves \[0, 1\]"):
        counting(f)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 8),
    log_scale=st.floats(-3.0, 3.0),
    k=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_counting_range_holds_every_sampled_value(d, log_scale, k, seed):
    # the range from the extreme eigenvalues contains every value the former
    # 1000-state check sampled, so the exact check is never the weaker, and
    # its ends are attained: by the extreme eigenvectors and, where
    # lo < 0 < hi, by the mix of them on which <psi|A|psi> = 0
    a = 10.0**log_scale * random_hermitian(d, np.random.default_rng(seed))
    f = quadratic(a) if k == 1 else power(a, k)
    eigenvalues, vectors = np.linalg.eigh(a)
    lo, hi = eigenvalues[[0, -1]]
    slack = 1e-12 * max(abs(lo), abs(hi)) ** k
    attained = [vectors[:, 0], vectors[:, -1]]
    if lo < 0 < hi:
        p = hi / (hi - lo)
        attained.append(np.sqrt(p) * vectors[:, 0] + np.sqrt(1.0 - p) * vectors[:, -1])
    ends = np.array([lo, hi, 0.0][:len(attained)]) ** k
    np.testing.assert_allclose(f.values(np.array(attained)), ends, rtol=0, atol=slack)
    low, high = ends.min(), ends.max()
    for rng in (np.random.default_rng(0x5EED + 1), np.random.default_rng(seed)):
        vals = f.values(random_pure_batch(1000, d, rng))
        assert low - slack <= vals.min() and vals.max() <= high + slack
    if low < -1e-12 or high > 1.0 + 1e-12:
        with pytest.raises(ValueError, match=r"leaves \[0, 1\]"):
            counting(f)
    else:
        assert counting(f).counting


def test_polarization_recovers_diagonal():
    f = quadratic(np.diag([0.2, 0.3, 0.5]).astype(complex))
    np.testing.assert_allclose(
        polarization_reconstruct(f), np.diag([0.2, 0.3, 0.5]), atol=1e-12
    )


def test_polarization_constant_gives_scaled_identity():
    c = 0.37
    f = custom(lambda psi: c, dim=3)
    np.testing.assert_allclose(
        polarization_reconstruct(f), c * np.eye(3), atol=1e-12
    )


def test_polarization_identity_random_hermitian():
    rng = np.random.default_rng(5)
    for d in range(2, 7):
        for _ in range(5):
            m = random_hermitian(d, rng)
            rec = polarization_reconstruct(quadratic(m))
            assert np.max(np.abs(rec - m)) < 1e-10


def test_polarization_evaluates_all_probes_in_one_batch(monkeypatch):
    # d basis states, then the d(d-1)/2 real and d(d-1)/2 phase probes
    d = 5
    m = random_hermitian(d, np.random.default_rng(7))
    f = quadratic(m)
    calls = []
    values = type(f).values

    def counted(self, psis):
        calls.append(len(psis))
        return values(self, psis)

    monkeypatch.setattr(type(f), "values", counted)
    rec = polarization_reconstruct(f)
    assert calls == [d * d]
    assert np.max(np.abs(rec - m)) < 1e-12
    assert np.array_equal(rec, rec.conj().T)


def test_polarization_of_power_observable_misfits():
    # frozen from the independent residual oracle: the best quadratic guess
    # for the squared projector misses by more than 0.1 on random states
    f = power(PROJ0_2, 2)
    rec = polarization_reconstruct(f)
    expected = np.array([[1.0, -0.25 - 0.25j], [-0.25 + 0.25j, 0.0]])
    np.testing.assert_allclose(rec, expected, atol=1e-12)
    pts = random_pure_batch(1000, 2, np.random.default_rng(6))
    res = np.max(np.abs(f.values(pts) - quadratic(rec).values(pts)))
    assert res > 0.1


def test_batch_and_scalar_evaluation_agree():
    rng = np.random.default_rng(8)
    f = power(PROJ0_2, 3)
    pts = np.array([random_pure(2, rng) for _ in range(10)])
    np.testing.assert_allclose(f.values(pts), [f(p) for p in pts], atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_quadratic_batch_matches_vdot(d, m, seed):
    rng = np.random.default_rng(seed)
    matrix = random_hermitian(d, rng)
    psis = random_pure_batch(m, d, rng)
    got = quadratic(matrix).values(psis)
    want = np.array([np.vdot(psi, matrix @ psi).real for psi in psis])
    scale = np.linalg.norm(matrix, 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_values_rejects_non_finite(bad):
    f = custom(lambda batch: np.where(batch[:, 0].real > 2.0, bad, 0.5), dim=2,
               batch=True)
    assert f(np.array([1.0, 0.0])) == 0.5
    with pytest.raises(ValueError, match="non-finite"):
        f.values(np.array([[3.0, 0.0], [1.0, 0.0]]))


def _nan_near_first_axis(dim: int):
    # finite on the construction spot checks, NaN on the cap |psi_0|^2 > 0.99,
    # which holds the first basis state that both certifiers evaluate
    def values(batch):
        return np.where(np.abs(batch[:, 0]) ** 2 > 0.99, np.nan, 0.25)

    return custom(values, dim, batch=True)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_certifiers_fail_closed_on_nan(seed):
    with pytest.raises(ValueError, match="non-finite"):
        certify(_nan_near_first_axis(2), 300, seed=seed)
    with pytest.raises(ValueError, match="non-finite"):
        certify(_nan_near_first_axis(3), seed=seed)
