import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprsignal import hilbert, nosignal
from eprsignal import (
    affinity_scan,
    basis_independence,
    combine,
    custom,
    exact_gap,
    gleason_certify,
    haar_unitary,
    power,
    quadratic,
)
from eprsignal.hilbert import random_pure_batch
from eprsignal.nosignal import (
    VERDICT_NON_QUADRATIC,
    VERDICT_QUADRATIC,
    Certificate,
    _ray_columns,
    _residual_rays,
    _rotated_measures,
    _rotation_name,
)
from eprsignal.observables import polarization_reconstruct
from eprsignal.serialize import certificate_to_json, dumps_canonical, witnesses_to_json
from eprsignal.streams import substream

from helpers import (
    PROJ0_2,
    builtin_observables,
    counting,
    detection_floor,
    floor_families,
    frame_z3,
    haar_unitaries,
    orthoadditivity_check,
    projector_matrix,
    random_hermitian,
    random_projector,
    random_scenario,
    subspace_measure,
)


def test_affinity_checks_each_witness_row_once(monkeypatch):
    checked, check = [], nosignal.unit_rows

    def counting_check(rows, tol):
        checked.append(len(rows))
        return check(rows, tol)

    monkeypatch.setattr(nosignal, "unit_rows", counting_check)
    cert = affinity_scan(power(PROJ0_2, 2), 1000, seed=3)
    assert checked == [len(cert.witnesses)] == [3 + 1000]


@pytest.mark.parametrize("n, report, table", [
    pytest.param(1, "667d8ed5ce4ba7d13c7cb9d9d61ed1e02d051ab1912ca52540580c4d0f34a86c",
                 "71114ef228401b05836aff059518ad94d120e171c6d8c2478009aa76a0607047", id="1"),
    pytest.param(257, "3a8978de380aad0226069af0931b4b03683e0fbbf09fd951cb52805a0f065731",
                 "9dace23b2e5aa790afcf203a2c1ca4bd80866cbef91eb0e5f7fede883cf3358d", id="257"),
    pytest.param(10000, "83d38f18b1a7a193db44d01fa7bc445e395d4bae74cec78312847a26bf2198aa",
                 "f16e39a9485d0471cbd170f234aff55d30ef7bd062445fce7b93ede49cf1c3b1",
                 id="10000"),
])
def test_custom_affinity_report_and_witness_bytes_are_unchanged(n, report, table):
    # SHA-256 of the certificate JSON and the witness table of a batch custom
    # twin of power(|0><0|, 2) at seed 0, whose residual rows are evaluated
    # in one values call: 1 ray, a partial chunk and many chunks of 256
    f = custom(power(PROJ0_2, 2).values, 2, batch=True)
    cert = affinity_scan(f, n, seed=0)
    assert cert.verdict == VERDICT_NON_QUADRATIC and cert.worst_violation >= 0.5
    text = dumps_canonical(certificate_to_json(cert)).encode()
    assert hashlib.sha256(text).hexdigest() == report
    text = dumps_canonical({"witnesses": witnesses_to_json(cert)}).encode()
    assert hashlib.sha256(text).hexdigest() == table


def test_affinity_makes_at_most_two_values_calls(monkeypatch):
    # the operator's 4 probes take one values call; a custom f then takes one
    # on all 3 + n rays, and an f with a matrix none, as its values come
    # from the product of the rays with [A | F]
    f = power(PROJ0_2, 2)
    twin = custom(f.values, 2, batch=True)
    calls = []
    values = type(f).values

    def counted(self, psis):
        calls.append(len(psis))
        return values(self, psis)

    monkeypatch.setattr(type(f), "values", counted)
    affinity_scan(twin, 10000, seed=0)
    assert calls == [4, 3 + 10000]
    for g in (f, quadratic(PROJ0_2)):
        calls.clear()
        affinity_scan(g, 10000, seed=0)
        assert calls == [4]


def test_non_finite_chord_value_fails_loudly():
    # (1e200 |<0|psi>|^2)^2 overflows unless psi is nearly |1>, on a probe
    # and on the rays
    f = power(1e200 * PROJ0_2, 2)
    with pytest.raises(ValueError, match="evaluator returned a non-finite value"), \
            np.errstate(over="ignore"):
        affinity_scan(f, 300)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 1200))
def test_affinity_independent_of_worker_count(seed, n):
    f = power(PROJ0_2, 2)
    certs = [affinity_scan(f, n, seed=seed, workers=w) for w in (1, 2, 3)]
    assert certs[0] == certs[1] == certs[2]
    texts = {dumps_canonical(certificate_to_json(c)) for c in certs}
    assert len(texts) == 1


def test_certificates_compare_by_value_and_are_unhashable():
    # a gleason certificate holds its reconstructed operator as an array
    f = quadratic(np.diag([1.0, 0.2, -0.7]))
    cert = gleason_certify(f, seed=0)
    assert cert.operator is not None
    assert cert == gleason_certify(f, seed=0)
    assert cert != gleason_certify(f, seed=1)
    assert cert != dataclasses.replace(cert, operator=cert.operator + 1e-3)
    assert cert != dataclasses.replace(cert, operator=None)
    rays = affinity_scan(power(PROJ0_2, 2), 50, seed=0)
    for c in (cert, rays):
        with pytest.raises(TypeError):
            hash(c)


@settings(max_examples=10, deadline=None)
@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_affinity_random_hermitian_quadratic_passes(entries, seed):
    a, d, re, im = entries
    matrix = np.array([[a, re + 1j * im], [re - 1j * im, d]])
    cert = affinity_scan(quadratic(matrix), 300, seed=seed)
    assert cert.worst_violation < 1e-9


def test_affinity_quadratic_passes():
    rng = np.random.default_rng(41)
    for matrix in (np.eye(2, dtype=complex), random_hermitian(2, rng)):
        cert = affinity_scan(quadratic(matrix), 1000, seed=42)
        assert cert.verdict == VERDICT_QUADRATIC
        assert cert.worst_violation < 1e-9


def test_affinity_power_produces_quarter_violation():
    # F = [[1, -(1 + i)/4], [-(1 - i)/4, 0]] from the probes, so the Fourier
    # row (e0 - e1)/sqrt(2) has f = 1/4 against <F> = 3/4, a residual of 1/2,
    # and no ray exceeds 1/4 + sqrt(2)/4
    cert = affinity_scan(power(PROJ0_2, 2), 1000, seed=43)
    assert cert.verdict == VERDICT_NON_QUADRATIC
    assert 0.5 <= cert.worst_violation <= 0.25 + math.sqrt(2.0) / 4.0 + 1e-12
    assert cert.witnesses.residual[2] == pytest.approx(0.5, rel=0, abs=1e-15)
    assert list(cert.checks) == ["residual"] and cert.worst_check == "residual"


def test_affinity_constant_observable():
    cert = affinity_scan(custom(lambda psi: 0.37, dim=2), 200, seed=44)
    assert cert.worst_violation < 1e-12


def test_affinity_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        affinity_scan(quadratic(np.eye(3, dtype=complex)), 10, seed=0)


def test_affinity_workers_identical():
    f = power(PROJ0_2, 2)
    assert affinity_scan(f, 600, seed=47, workers=1) == affinity_scan(
        f, 600, seed=47, workers=4
    )


def test_extremal_decomposition_reproduces_mixture_functional():
    # the eigen-split of a quadratic evaluates every mixture through its
    # density matrix, whatever two-member decomposition produced it
    rng = np.random.default_rng(48)
    f = quadratic(random_hermitian(2, rng))
    (lo, hi), vecs = np.linalg.eigh(f.matrix)
    b_lo, b_hi = vecs[:, 0], vecs[:, 1]
    for _ in range(100):
        pair, p = random_pure_batch(2, 2, rng), rng.uniform()
        at_1, at_2 = f.values(pair)
        via_members = p * at_1 + (1 - p) * at_2
        rho = p * np.outer(pair[0], pair[0].conj()) + (1 - p) * np.outer(pair[1], pair[1].conj())
        via_pair = hi * np.vdot(b_hi, rho @ b_hi).real + lo * np.vdot(
            b_lo, rho @ b_lo
        ).real
        assert via_members == pytest.approx(via_pair, abs=1e-10)


@pytest.mark.parametrize("seed", [0, 11, 12])
def test_d2_builtin_verdicts_and_worst_checks_are_pinned(seed):
    # every zoo entry and random Hermitian quadratics get their verdicts,
    # with residual as the worst check
    rng = np.random.default_rng(seed)
    entries = [(e.observable, e.is_quadratic) for e in builtin_observables(2)]
    entries += [(quadratic(random_hermitian(2, rng) * 10.0**p), True) for p in (-3, 0, 3)]
    for f, is_quadratic in entries:
        cert = affinity_scan(f, 1000, seed=seed)
        assert (cert.verdict == VERDICT_QUADRATIC) == is_quadratic
        assert cert.worst_check == "residual"


def test_frame_function_needs_more_than_basis_sums():
    # f = 1/2 + z^3/2 has f(n) + f(-n) = 1, so every orthonormal basis of
    # dimension 2 sums to 1: a basis-sum check passes it, as Gleason's
    # theorem needs d >= 3.  It is not affine on the Bloch ball, and the
    # residual flags it
    f = frame_z3()
    rng = np.random.default_rng(70)
    sums = [f.values(haar_unitary(2, rng)).sum() for _ in range(200)]
    assert np.max(np.abs(np.array(sums) - 1.0)) <= 1e-14
    for seed in (0, 11, 12):
        cert = affinity_scan(f, 1000, seed=seed)
        assert cert.verdict == VERDICT_NON_QUADRATIC and cert.worst_violation >= 0.1


def _probe_projectors(d: int) -> tuple:
    # polarization_reconstruct's d^2 probes, in its order, and their projectors
    eye = np.eye(d, dtype=complex)
    j, k = np.triu_indices(d, k=1)
    s = 1.0 / np.sqrt(2.0)
    probes = np.concatenate([eye, (eye[j] + eye[k]) * s, (eye[j] - 1j * eye[k]) * s])
    return probes, np.einsum("ki,kj->kij", probes, probes.conj())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600))
def test_residual_witness_is_a_signal(seed, n):
    # Hughston-Jozsa-Wootters: the probe projectors span the Hermitian
    # matrices, so |psi><psi| = sum c_k P_k with real c.  Moving the negative
    # terms across gives two ensembles of one density matrix, {psi, P_k with
    # c_k < 0} and {P_k with c_k > 0}, each normalised by Z = sum_{c > 0} c_k,
    # whose f-averages differ by the worst row's residual r over Z
    probes, projectors = _probe_projectors(2)
    basis = np.concatenate([projectors.reshape(4, -1).real, projectors.reshape(4, -1).imag], axis=1)
    for entry in builtin_observables(2):
        if entry.is_quadratic:
            continue
        f = entry.observable
        cert = affinity_scan(f, n, seed=seed)
        i = cert.checks["residual"].witness
        psi, r = cert.witnesses.rays[i], cert.witnesses.residual[i]
        rho = np.outer(psi, psi.conj())
        c = np.linalg.lstsq(basis.T, np.concatenate([rho.real.ravel(), rho.imag.ravel()]),
                            rcond=None)[0]
        neg, pos = c < 0, c > 0
        z = c[pos].sum()
        rho_minus = (rho - np.einsum("k,kij->ij", c[neg], projectors[neg])) / z
        rho_plus = np.einsum("k,kij->ij", c[pos], projectors[pos]) / z
        assert np.max(np.abs(rho_minus - rho_plus)) <= 1e-12, entry.name
        at_probes, at_psi = f.values(probes), f(psi)
        gap = (at_psi - c[neg] @ at_probes[neg]) / z - (c[pos] @ at_probes[pos]) / z
        assert abs(abs(gap) - r / z) <= 1e-12 * max(1.0, abs(at_psi)), entry.name


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 5), log_scale=st.floats(-6.0, 8.0),
       n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_quadratic_residual_is_at_rounding_level(d, log_scale, n, seed):
    # the residual rows in any dimension: d (d - 1)/2 pair rays, the Fourier
    # basis and n Haar rays, unit vectors; on quadratic(a F) each residual is
    # at most 64 eps d a ||F||_2
    matrix = random_hermitian(d, np.random.default_rng(seed))
    f = quadratic(matrix * 10.0**log_scale)
    rays = _residual_rays(d, n, seed)
    assert rays.shape == (d * (d - 1) // 2 + d + n, d)
    np.testing.assert_allclose(np.linalg.norm(rays, axis=1), 1.0, rtol=0, atol=1e-12)
    cols = _ray_columns(f, rays, polarization_reconstruct(f))
    bound = 64 * np.finfo(float).eps * d * 10.0**log_scale * np.linalg.norm(matrix, 2)
    assert cols.residual.max() <= bound


# The detection floors of the chord scan that affinity ran up to report
# version 5, at d = 2 and 1000 chords: the smallest eps at which it flagged
# quadratic(A) + eps g (``detection_floor``), per seed and family of
# ``floor_families``.  A check replacing it must leave no floor more than
# 2x higher
_CHORD_FLOORS_D2 = {
    0: {"power2-rank1": 4.27e-8, "power3-rank1": 2.84e-8, "power2-random": 5.90e-8,
        "power3-random": 2.21e-8, "frame-z3": 4.29e-8, "projection-product": 4.00e-8},
    11: {"power2-rank1": 4.25e-8, "power3-rank1": 2.84e-8, "power2-random": 5.90e-9,
         "power3-random": 2.09e-9, "frame-z3": 4.65e-8, "projection-product": 4.00e-8},
    12: {"power2-rank1": 4.39e-8, "power3-rank1": 3.00e-8, "power2-random": 2.41e-8,
         "power3-random": 8.18e-9, "frame-z3": 4.38e-8, "projection-product": 4.00e-8},
}


@pytest.mark.parametrize("seed", sorted(_CHORD_FLOORS_D2))
def test_residual_floors_are_within_twice_the_chord_floors(seed):
    def worst(f):
        return affinity_scan(f, 1000, seed=seed).checks["residual"].worst

    floors = {name: detection_floor(worst, base, g) for name, base, g in floor_families(2, seed)}
    assert floors.keys() == _CHORD_FLOORS_D2[seed].keys()
    for name, floor in floors.items():
        assert floor <= 2 * _CHORD_FLOORS_D2[seed][name], name


def test_subspace_measure_trace_for_quadratic():
    f = quadratic(np.diag([0.2, 0.3, 0.5]).astype(complex))
    assert subspace_measure(f, np.eye(3, dtype=complex)) == pytest.approx(1.0)
    rot = haar_unitary(3, np.random.default_rng(49))
    assert subspace_measure(f, rot.T) == pytest.approx(1.0, abs=1e-12)


def test_subspace_measure_power_basis_dependence():
    f = power(projector_matrix(3), 2)
    assert subspace_measure(f, np.eye(3, dtype=complex)) == pytest.approx(1.0)
    s = 1 / math.sqrt(2)
    mixed = np.array([[s, s, 0], [s, -s, 0], [0, 0, 1]], dtype=complex)
    assert subspace_measure(f, mixed) == pytest.approx(0.5)


def test_subspace_measure_single_ray():
    f = power(projector_matrix(3), 2)
    psi = np.array([0.6, 0.8, 0.0], dtype=complex)
    assert subspace_measure(f, [psi]) == pytest.approx(f(psi))


def test_subspace_measure_rejects_skew_basis():
    with pytest.raises(ValueError):
        subspace_measure(
            power(projector_matrix(3), 2),
            [np.array([1, 0, 0], dtype=complex), np.array([0.6, 0.8, 0], dtype=complex)],
        )


def test_basis_independence_quadratic_flat():
    rng = np.random.default_rng(50)
    f = quadratic(random_hermitian(3, rng))
    rec = basis_independence(f, np.eye(3, dtype=complex), haar_unitaries(3, 6, rng))
    assert rec.basis_spread < 1e-10


def test_basis_independence_power_spread():
    rng = np.random.default_rng(51)
    f = power(projector_matrix(3), 2)
    rec = basis_independence(f, np.eye(3, dtype=complex), haar_unitaries(3, 6, rng))
    assert rec.basis_spread >= 0.5


def test_basis_independence_single_ray_spread_zero():
    rng = np.random.default_rng(52)
    f = power(projector_matrix(3), 2)
    rec = basis_independence(
        f, [np.array([0, 1, 0], dtype=complex)], haar_unitaries(1, 4, rng)
    )
    assert rec.basis_spread < 1e-12


def test_basis_independence_requires_two_resamples():
    # at least two Haar rotations, each n x n for the n basis rows
    f = power(projector_matrix(3), 2)
    rng = np.random.default_rng(0)
    for rotations in (haar_unitaries(3, 1, rng), haar_unitaries(2, 4, rng),
                      haar_unitaries(3, 4, rng)[0]):
        with pytest.raises(ValueError, match="rotations"):
            basis_independence(f, np.eye(3, dtype=complex), rotations)


def test_orthoadditivity_concatenation_is_exact():
    # over the concatenated basis mu(Y) + mu(Z) = mu(Y + Z) holds termwise
    f = power(projector_matrix(3), 2)
    y = [np.array([1, 0, 0], dtype=complex), np.array([0, 1, 0], dtype=complex)]
    z = [np.array([0, 0, 1], dtype=complex)]
    assert subspace_measure(f, y) + subspace_measure(f, z) == subspace_measure(f, y + z)


def test_orthoadditivity_quadratic_flat_power_violates():
    y = [np.array([1, 0, 0], dtype=complex), np.array([0, 1, 0], dtype=complex)]
    z = [np.array([0, 0, 1], dtype=complex)]
    rng = np.random.default_rng(53)
    f_quad = quadratic(random_hermitian(3, rng))
    assert orthoadditivity_check(f_quad, y, z, rng) < 1e-10
    f_pow = power(projector_matrix(3), 2)
    assert orthoadditivity_check(f_pow, y, z, rng) > 0.1


def test_orthoadditivity_rejects_overlapping_subspaces():
    with pytest.raises(ValueError):
        orthoadditivity_check(
            power(projector_matrix(3), 2),
            [np.array([1, 0, 0], dtype=complex)],
            [np.array([1, 0, 0], dtype=complex)],
            np.random.default_rng(0),
        )


def _reference_rotations(n, resamples, rng):
    """The rotation family written out as dense n x n matrices: the Fourier
    mix, the real and the phase mix of every pair a < b, then the Haar draws."""
    out = []
    if n >= 2:
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        out.append(np.exp(2j * np.pi * j * k / n) / math.sqrt(n))
        s = 1.0 / math.sqrt(2.0)
        for a in range(n):
            for b in range(a + 1, n):
                for block in ([[s, s], [s, -s]], [[s, 1j * s], [1j * s, s]]):
                    w = np.eye(n, dtype=complex)
                    w[np.ix_([a, b], [a, b])] = block
                    out.append(w)
    return out + [haar_unitary(n, rng) for _ in range(resamples)]


def _reference_measures(f, rows, resamples, rng):
    rotations = _reference_rotations(len(rows), resamples, rng)
    return np.array(
        [np.sum(f.values(rows))] + [np.sum(f.values(w @ rows)) for w in rotations]
    )


def _family_observable(kind, d, rng):
    if kind == "quadratic":
        return quadratic(random_hermitian(d, rng))
    if kind == "power":
        return power(random_hermitian(d, rng), 3)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return custom(
        lambda psis: np.abs(psis[:, 0]) ** 6 - np.abs(psis @ v) ** 2, d, batch=True
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(0, 3),
    kind=st.sampled_from(["quadratic", "power", "custom"]),
    resamples=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotation_family_matches_dense_reference(n, extra, kind, resamples, seed):
    d = min(max(n, 3) + extra, 6)
    rng = np.random.default_rng(seed)
    f = _family_observable(kind, d, rng)
    rows = np.ascontiguousarray(haar_unitary(d, rng)[:, :n].T)

    ref = _reference_measures(f, rows, resamples, np.random.default_rng(seed))
    rec = basis_independence(
        f, rows, haar_unitaries(n, resamples, np.random.default_rng(seed))
    )
    scale = max(1.0, np.abs(ref).max())
    assert rec.mu == ref[0]
    assert abs(rec.basis_spread - (ref.max() - ref.min())) <= 1e-12 * scale

    if n < 2:
        return
    m = n // 2
    mu_parts = subspace_measure(f, rows[:m]) + subspace_measure(f, rows[m:])
    worst = orthoadditivity_check(
        f, rows[:m], rows[m:], np.random.default_rng(seed), resamples=resamples
    )
    assert abs(worst - np.abs(mu_parts - ref).max()) <= 1e-12 * scale


@pytest.mark.parametrize("n", range(1, 25))
def test_rotation_name_matches_the_full_name_table(n):
    # the table of every measure's name, as it was built for each n before
    # names were computed on demand
    a, b = np.triu_indices(n, k=1)
    structured = [("base",)]
    if n >= 2:
        structured += [(mix, int(p), int(q)) for mix in ("real", "phase") for p, q in zip(a, b)]
        structured.append(("fourier",))
    f = quadratic(np.eye(n, dtype=complex))
    for resamples in range(2, 7):
        table = structured + [("haar", j) for j in range(resamples)]
        rotations = haar_unitaries(n, resamples, np.random.default_rng(n))
        mus = _rotated_measures(f, np.eye(n, dtype=complex)[None], rotations[None])
        assert mus.shape == (1, len(table))
        names = [_rotation_name(n, i) for i in range(len(table))]
        assert names == table
        assert all(type(x) is int for name in names for x in name[1:])


def _row_path(f):
    # the same evaluator without its matrix, so the scan evaluates every
    # rotated row as a custom observable's
    return dataclasses.replace(f, kind="custom", matrix=None, exponent=None)


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_independence_makes_at_most_three_values_calls(n, monkeypatch):
    f = power(projector_matrix(max(n, 3)), 2)
    calls = []
    values = type(f).values

    def counted(self, psis):
        calls.append(len(psis))
        return values(self, psis)

    monkeypatch.setattr(type(f), "values", counted)
    rows = np.eye(max(n, 3), dtype=complex)[:n]
    rotations = haar_unitaries(n, 6, np.random.default_rng(n))
    basis_independence(_row_path(f), rows, rotations)
    assert len(calls) <= 3
    # base rows, then the four new rows of each pair mix, then the stacked
    # Fourier (n >= 2 only) and Haar rotations
    fourier = 1 if n >= 2 else 0
    assert sum(calls) == n + 2 * n * (n - 1) + n * (fourier + 6)

    # with a matrix, no row is evaluated through values: the base rows take
    # A's values from the same product as the compression
    calls.clear()
    basis_independence(f, rows, rotations)
    assert calls == []


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 13),
    k=st.integers(1, 3),
    log_scale=st.floats(-3.0, 3.0),
    resamples=st.integers(2, 6),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_restricted_measures_match_the_row_path(d, k, log_scale, resamples, data, seed):
    n = data.draw(st.integers(1, d), label="n")
    rng = np.random.default_rng(seed)
    matrix = random_hermitian(d, rng) * 10.0**log_scale
    f = quadratic(matrix) if k == 1 else power(matrix, k)
    rows = np.ascontiguousarray(haar_unitaries(d, 1, rng)[0][:, :n].T)
    rotations = haar_unitaries(n, resamples, rng)

    mus = _rotated_measures(f, rows[None], rotations[None])[0]
    ref = _rotated_measures(_row_path(f), rows[None], rotations[None])[0]
    assert mus[0] == ref[0]
    scale = max(1.0, np.linalg.norm(matrix, 2) ** k)
    assert np.max(np.abs(mus - ref)) <= 1e-12 * scale


def test_non_finite_restricted_value_fails_loudly():
    # every base value is 0, but the real mix of rows 0 and 1 is (1e103)^3
    f = power([[0, 1e103, 0], [1e103, 0, 0], [0, 0, 0]], 3)
    rotations = haar_unitaries(3, 2, np.random.default_rng(0))
    for g in (f, _row_path(f)):
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            basis_independence(g, np.eye(3, dtype=complex), rotations)


def _scorer_observable(kind, d, rng):
    if kind == "counting":
        return counting(power(random_projector(d, rng), 2))
    return _family_observable(kind, d, rng)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(3, 13),
    kind=st.sampled_from(["quadratic", "power", "counting", "custom"]),
    count=st.integers(1, 3),
    resamples=st.integers(2, 4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_scorer_is_each_subspace_bit_for_bit(d, kind, count, resamples, data, seed):
    # one stacked call of the scan's strided views u[:, :n].T gives each
    # subspace's measures and record as a call of that subspace alone
    n = data.draw(st.integers(1, d), label="n")
    rng = np.random.default_rng(seed)
    f = _scorer_observable(kind, d, rng)
    rows = haar_unitaries(d, count, rng)[:, :, :n].transpose(0, 2, 1)
    rotations = haar_unitaries(n, count * resamples, rng).reshape(count, resamples, n, n)
    mus = _rotated_measures(f, rows, rotations)
    records = nosignal._basis_records(f, rows, rotations)
    for j in range(count):
        alone = _rotated_measures(f, rows[j:j + 1], rotations[j:j + 1])
        assert mus[j].tobytes() == alone[0].tobytes()
        assert records[j] == basis_independence(f, rows[j], rotations[j])


def test_stacked_scorer_fails_on_any_subspace_of_the_stack():
    rotations = haar_unitaries(2, 6, np.random.default_rng(0)).reshape(3, 2, 2, 2)
    # the observable of test_non_finite_restricted_value_fails_loudly is 0 on
    # span{e0, e2} and span{e1, e2}, and overflows on mixes of e0 and e1
    f = power([[0, 1e103, 0], [1e103, 0, 0], [0, 0, 0]], 3)
    rows = np.eye(3, dtype=complex)[[[0, 2], [0, 1], [1, 2]]]
    for g in (f, _row_path(f)):
        nosignal._basis_records(g, rows[[0, 2]], rotations[[0, 2]])
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            nosignal._basis_records(g, rows, rotations)
    # a second basis that is not orthonormal fails the one stacked check
    rows = haar_unitaries(4, 3, np.random.default_rng(1))[:, :, :2].transpose(0, 2, 1)
    rows[1, 0, 0] += 1e-6
    with pytest.raises(ValueError, match=r"^basis is not orthonormal \(max deviation"):
        nosignal._basis_records(quadratic(random_hermitian(4, np.random.default_rng(2))),
                                rows, rotations)


@pytest.mark.parametrize("n", [1, 40])
def test_stacked_scorer_at_d140_is_each_subspace_bit_for_bit(n):
    # at d = 140 the products have more than 128 inner terms, where a
    # threaded product would round differently from the per-slice blocks
    rng = np.random.default_rng(n)
    f = power(random_hermitian(140, rng), 2)
    rows = haar_unitaries(140, 2, rng)[:, :, :n].transpose(0, 2, 1)
    rotations = haar_unitaries(n, 4, rng).reshape(2, 2, n, n)
    mus = _rotated_measures(f, rows, rotations)
    for j in range(2):
        alone = _rotated_measures(f, rows[j:j + 1], rotations[j:j + 1])
        assert mus[j].tobytes() == alone[0].tobytes()


def test_subspace_measure_matches_projector_trace():
    # for quadratic f the measure of any subspace is Tr(F P_X)
    rng = np.random.default_rng(62)
    for d in (3, 4, 5, 6):
        matrix = random_hermitian(d, rng)
        f = quadratic(matrix)
        for _ in range(10):
            m = int(rng.integers(1, d + 1))
            rows = haar_unitary(d, rng)[:, :m].T
            p_x = rows.T @ rows.conj()
            expected = np.trace(matrix @ p_x).real
            assert subspace_measure(f, rows) == pytest.approx(expected, abs=1e-10)


def test_gleason_quadratic_recovers_operator():
    f = quadratic(np.diag([0.2, 0.3, 0.5]).astype(complex))
    cert = gleason_certify(f, seed=54)
    assert cert.verdict == VERDICT_QUADRATIC
    assert np.max(np.abs(cert.operator - np.diag([0.2, 0.3, 0.5]))) < 1e-10


def test_gleason_power_non_quadratic_with_spread_witness():
    f = counting(power(projector_matrix(3), 2))
    cert = gleason_certify(f, seed=55)
    assert cert.verdict == VERDICT_NON_QUADRATIC
    spreads = [w.basis_spread for w in cert.witnesses if hasattr(w, "basis_spread")]
    assert max(spreads) >= 0.5


def test_gleason_always_firing_counter():
    f = counting(quadratic(np.eye(3, dtype=complex)))
    cert = gleason_certify(f, seed=56)
    assert cert.verdict == VERDICT_QUADRATIC
    assert np.max(np.abs(cert.operator - np.eye(3))) < 1e-10


def test_gleason_rejects_dim_two():
    with pytest.raises(ValueError):
        gleason_certify(quadratic(np.eye(2, dtype=complex)), seed=0)


@pytest.mark.parametrize("subspaces_per_dim", [0, -1])
def test_gleason_needs_a_subspace_per_dimension(subspaces_per_dim):
    # with none, the full space alone would pass any observable
    with pytest.raises(ValueError, match="at least one subspace per dimension"):
        gleason_certify(quadratic(np.eye(3, dtype=complex)), subspaces_per_dim=subspaces_per_dim)


@pytest.mark.parametrize("resamples", [0, 1])
def test_gleason_needs_two_resamples(resamples):
    # the message names the argument, as the command line's does
    with pytest.raises(ValueError, match="resamples must be an integer >= 2"):
        gleason_certify(quadratic(np.eye(3, dtype=complex)), resamples=resamples)


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf])
def test_certifiers_reject_a_tolerance_the_command_line_rejects(tolerance):
    # a tolerance <= 0 or NaN would call every observable non-quadratic
    for scan in (lambda: affinity_scan(quadratic(np.eye(2, dtype=complex)), 10, tolerance=tolerance),
                 lambda: gleason_certify(quadratic(np.eye(3, dtype=complex)), tolerance=tolerance)):
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            scan()


def test_gleason_workers_identical():
    f = quadratic(random_hermitian(4, np.random.default_rng(57)))
    a = gleason_certify(f, seed=58, workers=1)
    b = gleason_certify(f, seed=58, workers=4)
    assert a.worst_violation == b.worst_violation
    assert a.verdict == b.verdict


@settings(max_examples=200, deadline=None)
@given(worst=st.floats(), tolerance=st.floats(min_value=0.0, exclude_min=True))
@example(worst=math.nan, tolerance=1e-8)
@example(worst=1e-8, tolerance=1e-8)
def test_certificate_verdict_must_match_violation(worst, tolerance):
    # the verdict is derived, never stored: non-quadratic unless the worst
    # violation is below the tolerance, so a NaN violation is non-quadratic
    cert = Certificate(worst_violation=worst, witnesses=(), tolerance=tolerance)
    assert (cert.verdict == VERDICT_NON_QUADRATIC) == (not worst < tolerance)
    assert cert.verdict in (VERDICT_QUADRATIC, VERDICT_NON_QUADRATIC)
    assert "verdict" not in {f.name for f in dataclasses.fields(Certificate)}


def test_certifiers_agree_with_ground_truth():
    # dim-2 residual scan and dim-3 subspace route both recover the tag
    for entry in builtin_observables(2):
        cert = affinity_scan(entry.observable, 400, seed=59)
        assert (cert.verdict == VERDICT_QUADRATIC) == entry.is_quadratic, entry.name
    for entry in builtin_observables(3):
        cert = gleason_certify(entry.observable, seed=60)
        assert (cert.verdict == VERDICT_QUADRATIC) == entry.is_quadratic, entry.name


@pytest.mark.parametrize("seed", [0, 11, 12])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_builtin_verdicts_and_worst_checks_are_pinned(d, seed):
    # every zoo entry gets its tagged verdict, and the basis spread is its
    # worst check, quadratic entries included
    for entry in builtin_observables(d):
        cert = gleason_certify(entry.observable, seed=seed)
        assert (cert.verdict == VERDICT_QUADRATIC) == entry.is_quadratic, entry.name
        assert cert.worst_check == "basis_spread", entry.name


def test_certified_kind_matches_signaling_behaviour():
    # non-quadratic observables admit a signaling scenario; quadratic ones
    # never produce an exact gap
    rng = np.random.default_rng(61)
    for dim in (2, 3):
        for entry in builtin_observables(dim):
            if entry.is_quadratic:
                for _ in range(50):
                    sc = random_scenario(entry.observable, 3, int(rng.integers(1, 4)), rng)
                    assert abs(exact_gap(sc).gap) < 1e-10, entry.name
            else:
                best = 0.0
                for _ in range(1000):
                    sc = random_scenario(entry.observable, 3, 3, rng)
                    best = max(best, abs(exact_gap(sc).gap))
                    if best > 1e-6:
                        break
                assert best > 1e-6, entry.name


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 5),
    kind=st.sampled_from(["quadratic", "power", "custom"]),
    resamples=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_basis_spread_names_the_extreme_rotations(n, kind, resamples, seed):
    # each rotation name, turned back into its dense matrix, gives the
    # largest and the smallest measure of the family
    d = max(n, 3)
    rng = np.random.default_rng(seed)
    f = _family_observable(kind, d, rng)
    rows = np.ascontiguousarray(haar_unitary(d, rng)[:, :n].T)
    rec = basis_independence(
        f, rows, haar_unitaries(n, resamples, np.random.default_rng(seed))
    )

    names = [("haar", j) for j in range(resamples)]
    if n >= 2:
        pairs = [(k, a, b) for a in range(n) for b in range(a + 1, n)
                 for k in ("real", "phase")]
        names = [("fourier",)] + pairs + names
    rotations = _reference_rotations(n, resamples, np.random.default_rng(seed))
    mu = {("base",): subspace_measure(f, rows)}
    mu.update((name, subspace_measure(f, w @ rows)) for name, w in zip(names, rotations))
    scale = max(1.0, max(abs(v) for v in mu.values()))
    assert set(mu) >= {rec.max_rotation, rec.min_rotation}
    assert abs(mu[rec.max_rotation] - max(mu.values())) <= 1e-12 * scale
    assert abs(mu[rec.min_rotation] - min(mu.values())) <= 1e-12 * scale
    assert abs(mu[rec.max_rotation] - mu[rec.min_rotation] - rec.basis_spread) <= 1e-12 * scale


def _haar_one_by_one(n, count, rng):
    # one QR per draw, as haar_unitary did before the draws were batched
    out = []
    for _ in range(count):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        out.append(q * (diag / np.abs(diag)))
    return np.array(out, dtype=complex).reshape(count, n, n)


def _haar_from_normals_one_by_one(z):
    # haar_from_normals with one QR per (2, n, n) draw of the stack
    out = []
    for re, im in z:
        q, r = np.linalg.qr(re + 1j * im)
        diag = np.diagonal(r)
        out.append(q * (diag / np.abs(diag)))
    return np.array(out, dtype=complex).reshape(len(z), *z.shape[2:])


def _subspace_address(seed, d, subspaces_per_dim, k):
    # README's recipe for witness row k of a gleason table: the basis and the
    # rotation stream, from the seed and the row index alone.  Row k < spd
    # (d - 1) is draw i = k mod spd of dimension m = k // spd + 1; the last
    # row is the full space, with the computational basis
    if k == subspaces_per_dim * (d - 1):
        m, basis = d, np.eye(d, dtype=complex)
    else:
        m, i = k // subspaces_per_dim + 1, k % subspaces_per_dim
        basis = _haar_one_by_one(d, 1, substream(seed, 20, m, i))[0][:, :m].T
    return basis, substream(seed, 20, m, 1000 + k)


def _per_subspace_records(f, seed, subspaces_per_dim, resamples):
    # the subspace scan one subspace at a time, as before its QRs were
    # stacked: one QR per Haar draw, each row regenerated from its address
    rows = [_subspace_address(seed, f.dim, subspaces_per_dim, k)
            for k in range(subspaces_per_dim * (f.dim - 1) + 1)]
    records = [
        basis_independence(f, basis, _haar_one_by_one(len(basis), resamples, rng))
        for basis, rng in rows
    ]
    return records, [basis for basis, _ in rows]


def _scan_qr_shapes(d, subspaces_per_dim=3, resamples=6):
    # the operand shapes of the subspace scan's 2 d - 1 QRs, in call order:
    # per dimension m < d a thin QR of the first m columns of its sampled
    # subspaces' d x d draws, then one of their m x m rotations; last, the
    # full space's d x d rotations
    shapes = []
    for m in range(1, d):
        shapes += [(subspaces_per_dim, d, m), (subspaces_per_dim * resamples, m, m)]
    return shapes + [(resamples, d, d)]


def _gleason_texts(f, seed, **kwargs):
    cert = gleason_certify(f, seed=seed, **kwargs)
    return [dumps_canonical(encode(cert)) for encode in (certificate_to_json, witnesses_to_json)]


def test_batched_haar_draws_match_one_qr_per_draw(monkeypatch):
    for n, count in ((1, 3), (3, 0), (4, 6), (24, 2)):
        batch = haar_unitaries(n, count, np.random.default_rng([n, count]))
        single = _haar_one_by_one(n, count, np.random.default_rng([n, count]))
        assert batch.tobytes() == single.tobytes()

    rng = np.random.default_rng(62)
    observables = [
        quadratic(random_hermitian(5, rng)),
        counting(power(projector_matrix(4, 1), 2)),
    ]
    batched = [_gleason_texts(f, 63) for f in observables]
    # every QR of the certifier, stacked or not, goes one draw at a time
    calls = []

    def one_by_one(z):
        calls.append((len(z), *z.shape[2:]))
        return _haar_from_normals_one_by_one(z)

    for module in (nosignal, hilbert):
        monkeypatch.setattr(module, "haar_from_normals", one_by_one)
    assert [_gleason_texts(f, 63) for f in observables] == batched
    # the scan's QRs at d = 5 and d = 4: the trace fit draws nothing
    assert calls == _scan_qr_shapes(5) + _scan_qr_shapes(4)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(3, 7),
    subspaces_per_dim=st.integers(1, 3),
    resamples=st.integers(2, 4),
    kind=st.sampled_from(["quadratic", "power", "custom"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_subspace_scan_matches_per_subspace_reference(
    d, subspaces_per_dim, resamples, kind, seed
):
    # the certificate and witness table bytes do not depend on the stacking
    f = _family_observable(kind, d, np.random.default_rng(seed))
    kwargs = dict(subspaces_per_dim=subspaces_per_dim, resamples=resamples)
    stacked = _gleason_texts(f, seed, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nosignal, "_subspace_records", _per_subspace_records)
        assert _gleason_texts(f, seed, **kwargs) == stacked


@pytest.mark.parametrize("d", [3, 5, 8])
def test_subspace_scan_makes_two_d_minus_one_qr_calls(d, monkeypatch):
    f = power(random_hermitian(d, np.random.default_rng(d)), 3)
    qr, values = np.linalg.qr, type(f).values
    log = []

    def counted_qr(a, *args, **kwargs):
        log.append(("qr", a.shape))
        return qr(a, *args, **kwargs)

    def counted_values(self, psis):
        log.append(("values", len(psis)))
        return values(self, psis)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(type(f), "values", counted_values)
    nosignal._subspace_records(f, 11, 3, 6)
    # a thin QR of each dimension's sampled subspaces and one QR of their
    # rotations; an observable with a matrix makes no values call, as each
    # dimension's subspaces are scored as one stacked product
    assert log == [("qr", shape) for shape in _scan_qr_shapes(d)]
    # without its matrix, each subspace in turn evaluates its base rows, its
    # pair mixes (n >= 2) and its Fourier and 6 Haar rotations
    log.clear()
    nosignal._subspace_records(_row_path(f), 11, 3, 6)
    want = []
    for m in range(1, d + 1):
        want += ([m, 2 * m * (m - 1), 7 * m] if m >= 2 else [1, 6]) * (3 if m < d else 1)
    assert [n for kind, n in log if kind == "values"] == want
    # the certifier runs that scan once, and the trace fit reuses its
    # subspaces, whether the observable fails the spread or passes it
    for g, fit in ((f, False), (quadratic(random_hermitian(d, np.random.default_rng(d))), True)):
        log.clear()
        cert = gleason_certify(g, seed=11)
        assert ("trace_fit" in cert.checks) == fit
        assert sum(kind == "qr" for kind, _ in log) == 2 * d - 1


def test_psd_deficit_check_records_the_lowest_eigenpair():
    f = counting(power(projector_matrix(3), 2))
    cert = gleason_certify(f, seed=66)
    check = cert.checks["psd_deficit"]
    lam, vec = check.witness.eigenvalue, np.array(check.witness.eigenvector)
    assert check.count == 1 and check.worst == max(0.0, -lam)
    # the eigenvalue and the eigenvector come from one decomposition
    eigenvalues, eigenvectors = np.linalg.eigh(cert.operator)
    assert lam == eigenvalues[0] and np.array_equal(vec, eigenvectors[:, 0])
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    assert np.linalg.norm(cert.operator @ vec - lam * vec) <= 1e-10
    plain = gleason_certify(quadratic(random_hermitian(3, np.random.default_rng(67))), seed=66)
    assert list(plain.checks) == ["basis_spread", "trace_fit"]
    assert plain.worst_check in plain.checks


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(3, 6),
    kind=st.sampled_from(["quadratic", "power", "custom"]),
    scale=st.floats(1e-3, 1e3),
    subspaces_per_dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_value_is_the_projector_trace_of_the_operator(
    d, kind, scale, subspaces_per_dim, seed
):
    # each subspace row's trace_value is Tr(F P_X), P_X = R^T conj(R) for the
    # basis rows R, and the trace fit reads |mu - trace_value| off the same
    # rows, judged only while the spread passes
    f = _family_observable(kind, d, np.random.default_rng(seed))
    f = combine([scale], [f])
    cert = gleason_certify(f, seed=seed, subspaces_per_dim=subspaces_per_dim, resamples=2)
    op = cert.operator
    bound = 64 * np.finfo(float).eps * d * max(1.0, np.linalg.norm(op, 2))
    assert len(cert.witnesses) == subspaces_per_dim * (d - 1) + 1
    for k, r in enumerate(cert.witnesses):
        rows = _subspace_address(seed, d, subspaces_per_dim, k)[0]
        assert abs(r.trace_value - np.trace(op @ rows.T @ rows.conj()).real) <= bound
    spread = cert.checks["basis_spread"].worst
    assert ("trace_fit" in cert.checks) == (spread < cert.tolerance)
    if "trace_fit" in cert.checks:
        fit = [abs(r.mu - r.trace_value) for r in cert.witnesses]
        assert cert.checks["trace_fit"] == (max(fit), len(fit), fit.index(max(fit)))
    if kind == "quadratic":
        assert "trace_fit" in cert.checks


def test_gleason_draws_only_from_the_subspace_streams(monkeypatch):
    # the trace fit draws no subspaces of its own: no stream (seed, 21, ...)
    paths = []

    def recording(seed, *path):
        paths.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(nosignal, "substream", recording)
    for f in (quadratic(random_hermitian(4, np.random.default_rng(68))),
              counting(power(projector_matrix(4), 2))):
        paths.clear()
        cert = gleason_certify(f, seed=69)
        assert {p[0] for p in paths} == {20}
        # (20, m, i) per sampled subspace, (20, m, 1000 + k) per rotation stack
        assert len(paths) == 3 * 3 + len(cert.witnesses)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(3, 4),
    k=st.integers(1, 3),
    flag=st.booleans(),
)
def test_psd_deficit_is_checked_iff_counting(seed, d, k, flag):
    p = random_projector(d, np.random.default_rng(seed))
    f = quadratic(p) if k == 1 else power(p, k)
    if flag:
        f = counting(f)
    cert = gleason_certify(f, seed=seed, subspaces_per_dim=1, resamples=2)
    assert ("psd_deficit" in cert.checks) == flag
