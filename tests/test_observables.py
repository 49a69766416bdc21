import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsignal import (
    Ensemble,
    combine,
    affinity_scan,
    custom,
    gleason_certify,
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
    np.testing.assert_allclose(h.matrix, 1.5 * f.matrix - 2.0 * g.matrix, atol=1e-14)


def test_quadratic_average_matches_density_trace():
    # bridge between the ensemble average and the density-matrix picture
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        f = quadratic(random_hermitian(d, rng))
        k = int(rng.integers(1, 5))
        w = rng.random(k)
        ens = Ensemble(w / w.sum(), [random_pure(d, rng) for _ in range(k)])
        via_trace = np.trace(f.matrix @ ensemble_density(ens).mat).real
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
        affinity_scan(_nan_near_first_axis(2), 300, seed=seed)
    with pytest.raises(ValueError, match="non-finite"):
        gleason_certify(_nan_near_first_axis(3), seed=seed)
