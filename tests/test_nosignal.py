import dataclasses
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprsignal import nosignal
from eprsignal import (
    certify,
    combine,
    custom,
    exact_gap,
    haar_unitary,
    power,
    quadratic,
)
from eprsignal.cli import ConfigError, execute, parse_config
from eprsignal.hilbert import expectations, random_pure_batch
from eprsignal.observables import polarization_reconstruct
from eprsignal.nosignal import (
    VERDICT_NON_QUADRATIC,
    VERDICT_QUADRATIC,
    Certificate,
    _ray_values,
    _residual_rays,
)
from eprsignal.serialize import certificate_to_json, dumps_canonical, observable_to_json, witnesses_to_json
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

# rows of the refinement: 12 rounds of 128
REFINED = 12 * 128


def test_affinity_checks_each_witness_row_once(monkeypatch):
    checked, check = [], nosignal.unit_rows

    def counting_check(rows, tol):
        checked.append(len(rows))
        return check(rows, tol)

    monkeypatch.setattr(nosignal, "unit_rows", counting_check)
    cert = certify(power(PROJ0_2, 2), 1000, seed=3)
    # the fixed and Haar rows; the refined rows are normalised where made
    assert checked == [3 + 1000] and len(cert.witnesses) == 3 + 1000 + REFINED


@pytest.mark.parametrize("n, report, table", [
    pytest.param(1, "223ab08bc5ad3641487aafef6b1a71c1e242dffc9fef390834f5993e74020752",
                 "9ea9b87d9cca74ee06df130b5f6672183bc65175201860552f95f5abb4f08a03", id="1"),
    pytest.param(257, "498bfc48a614a8037a2cd36f062b2e6837afae9a4679bf0fd06058bbc6476f05",
                 "f04d5b64a411c12e9c4ee77dfc7af9b13a21e3b2d7a423d0fd469b2b93bf2acc", id="257"),
    pytest.param(10000, "02a9763ed522ad406b02cdac72775a5f80d0f592f87c39d0fe657cb64f6d9328",
                 "5dd5a3e0f32c74cdcb576889d2631c38884dc295dee684a1428066308818f528",
                 id="10000"),
])
def test_custom_affinity_report_and_witness_bytes_are_unchanged(n, report, table):
    # SHA-256 of the certificate JSON and the witness table of a batch custom
    # twin of power(|0><0|, 2) at seed 0, whose residual rows are evaluated
    # in one values call per batch: 1 Haar ray, a partial chunk and many
    # chunks of 256, then the refined rows
    f = custom(power(PROJ0_2, 2).values, 2, batch=True)
    cert = certify(f, n, seed=0)
    assert cert.verdict == VERDICT_NON_QUADRATIC and cert.worst_violation >= 0.5
    text = dumps_canonical(certificate_to_json(cert)).encode()
    assert hashlib.sha256(text).hexdigest() == report
    text = dumps_canonical({"witnesses": witnesses_to_json(cert)}).encode()
    assert hashlib.sha256(text).hexdigest() == table


def test_affinity_makes_at_most_two_values_calls(monkeypatch):
    # at most two before the refinement: the operator's 4 probes take one
    # values call; a custom f then takes one on all 3 + n rays and one per
    # refinement round, and a polynomial f none, as its values come from
    # the expectations of its matrices and F in one kernel call
    f = power(PROJ0_2, 2)
    twin = custom(f.values, 2, batch=True)
    calls = []
    values = type(f).values

    def counted(self, psis):
        calls.append(len(psis))
        return values(self, psis)

    monkeypatch.setattr(type(f), "values", counted)
    certify(twin, 10000, seed=0)
    assert calls == [4, 3 + 10000] + [128] * 12
    for g in (f, quadratic(PROJ0_2), combine([1.0, 0.5], [quadratic(PROJ0_2), f])):
        calls.clear()
        certify(g, 10000, seed=0)
        assert calls == [4]


def test_non_finite_chord_value_fails_loudly():
    # (1e200 |<0|psi>|^2)^2 overflows unless psi is nearly |1>, on a probe
    # and on the rays
    f = power(1e200 * PROJ0_2, 2)
    with pytest.raises(ValueError, match="evaluator returned a non-finite value"), \
            np.errstate(over="ignore"):
        certify(f, 300)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 1200))
def test_affinity_independent_of_worker_count(seed, n):
    # affinity_scan is certify under the name of the benchmark's layer
    # call, which passes a worker count
    f = power(PROJ0_2, 2)
    certs = [nosignal.affinity_scan(f, n, seed=seed, workers=w) for w in (1, 2, 3)]
    assert certs[0] == certs[1] == certs[2] == certify(f, n, seed=seed)
    texts = {dumps_canonical(certificate_to_json(c)) for c in certs}
    assert len(texts) == 1


def test_certificates_compare_by_value_and_are_unhashable():
    # a gleason certificate holds its reconstructed operator as an array
    f = quadratic(np.diag([1.0, 0.2, -0.7]))
    cert = certify(f, seed=0)
    assert cert.operator is not None
    assert cert == certify(f, seed=0)
    assert cert != certify(f, seed=1)
    assert cert != dataclasses.replace(cert, operator=cert.operator + 1e-3)
    assert cert != dataclasses.replace(cert, operator=None)
    rays = certify(power(PROJ0_2, 2), 50, seed=0)
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
    cert = certify(quadratic(matrix), 300, seed=seed)
    assert cert.worst_violation < 1e-9


def test_affinity_quadratic_passes():
    rng = np.random.default_rng(41)
    for matrix in (np.eye(2, dtype=complex), random_hermitian(2, rng)):
        cert = certify(quadratic(matrix), 1000, seed=42)
        assert cert.verdict == VERDICT_QUADRATIC
        assert cert.worst_violation < 1e-9


def test_affinity_power_produces_quarter_violation():
    # F = [[1, -(1 + i)/4], [-(1 - i)/4, 0]] from the probes, so the Fourier
    # row (e0 - e1)/sqrt(2) has f = 1/4 against <F> = 3/4, a residual of 1/2,
    # and no ray exceeds 1/4 + sqrt(2)/4
    cert = certify(power(PROJ0_2, 2), 1000, seed=43)
    assert cert.verdict == VERDICT_NON_QUADRATIC
    assert 0.5 <= cert.worst_violation <= 0.25 + math.sqrt(2.0) / 4.0 + 1e-12
    assert cert.witnesses.residual[2] == pytest.approx(0.5, rel=0, abs=1e-15)
    assert list(cert.checks) == ["residual"] and cert.worst_check == "residual"


def test_affinity_constant_observable():
    cert = certify(custom(lambda psi: 0.37, dim=2), 200, seed=44)
    assert cert.worst_violation < 1e-12


def _run_certifier(command, f):
    return execute(parse_config({"command": command, "observable": observable_to_json(f)}))


def test_affinity_rejects_wrong_dimension():
    with pytest.raises(ConfigError, match="affinity needs dimension 2, got 3"):
        _run_certifier("affinity", quadratic(np.eye(3, dtype=complex)))


def test_affinity_workers_identical():
    f = power(PROJ0_2, 2)
    assert nosignal.affinity_scan(f, 600, seed=47, workers=1) == nosignal.affinity_scan(
        f, 600, seed=47, workers=4
    )


def test_extremal_decomposition_reproduces_mixture_functional():
    # the eigen-split of a quadratic evaluates every mixture through its
    # density matrix, whatever two-member decomposition produced it
    rng = np.random.default_rng(48)
    f = quadratic(random_hermitian(2, rng))
    (lo, hi), vecs = np.linalg.eigh(f.matrices[0])
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
        cert = certify(f, 1000, seed=seed)
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
        cert = certify(f, 1000, seed=seed)
        assert cert.verdict == VERDICT_NON_QUADRATIC and cert.worst_violation >= 0.1


def _probe_projectors(d: int) -> tuple:
    # polarization_reconstruct's d^2 probes, in its order, and their projectors
    eye = np.eye(d, dtype=complex)
    j, k = np.triu_indices(d, k=1)
    s = 1.0 / np.sqrt(2.0)
    probes = np.concatenate([eye, (eye[j] + eye[k]) * s, (eye[j] - 1j * eye[k]) * s])
    return probes, np.einsum("ki,kj->kij", probes, probes.conj())


@settings(max_examples=10, deadline=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600))
def test_residual_witness_is_a_signal(d, seed, n):
    # Hughston-Jozsa-Wootters: the probe projectors span the Hermitian
    # matrices, so |psi><psi| = sum c_k P_k with real c.  Moving the negative
    # terms across gives two ensembles of one density matrix, {psi, P_k with
    # c_k < 0} and {P_k with c_k > 0}, each normalised by Z = sum_{c > 0} c_k,
    # whose f-averages differ by the row's residual r over Z: for the worst
    # row and for the last refined row
    probes, projectors = _probe_projectors(d)
    flat = projectors.reshape(d * d, -1)
    basis = np.concatenate([flat.real, flat.imag], axis=1)
    for entry in builtin_observables(d):
        if entry.is_quadratic:
            continue
        f = entry.observable
        cert = certify(f, n, seed=seed)
        for i in (cert.checks["residual"].witness, len(cert.witnesses) - 1):
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
    # basis and n Haar rays, then the refined rows, all unit vectors; on
    # quadratic(a F) each residual is at most 64 eps d a ||F||_2
    matrix = random_hermitian(d, np.random.default_rng(seed))
    f = quadratic(matrix * 10.0**log_scale)
    table = d * (d - 1) // 2 + d + n
    assert _residual_rays(d, n, seed).shape == (table, d)
    cols = certify(f, n, seed=seed).witnesses
    assert cols.rays.shape == (table + REFINED, d)
    np.testing.assert_allclose(np.linalg.norm(cols.rays, axis=1), 1.0, rtol=0, atol=1e-12)
    bound = 64 * np.finfo(float).eps * d * 10.0**log_scale * np.linalg.norm(matrix, 2)
    assert cols.residual.max() <= bound


def _replayed_worst_ray(f, seed, n):
    # README's recipe for the refined rows, one chain at a time: chain c
    # starts at the c-th largest |h| of the table, h = f - <F>, keeps that
    # row's sign s, and in round r draws its 32 candidates, rows 32 c to
    # 32 c + 31 of round r's 128 draws from the one generator (seed, 31)
    operator = polarization_reconstruct(f)
    rays = _residual_rays(f.dim, n, seed)
    h = np.subtract(*_ray_values(f, rays, operator))
    order = sorted(range(len(h)), key=lambda i: (-abs(h[i]), i))[:4]
    rng = substream(seed, 31)
    draws = [random_pure_batch(128, f.dim, rng) for _ in range(12)]
    rows, residuals = list(rays), list(np.abs(h))
    for c, start in enumerate(order):
        sign = -1.0 if h[start] < 0 else 1.0
        centre, score = rays[start], abs(h[start])
        for r in range(12):
            cand = centre + 0.7**r * draws[r][32 * c:32 * c + 32]
            cand = cand / np.linalg.norm(cand, axis=1, keepdims=True)
            signed = sign * np.subtract(*_ray_values(f, cand, operator))
            best = int(np.argmax(signed))
            if signed[best] > score:
                centre, score = cand[best], signed[best]
            rows += list(cand)
            residuals += list(np.abs(signed))
    return rows[int(np.argmax(residuals))]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_worst_refined_row_replays_from_its_stream(d):
    # the worst row of a certificate is a refined row, and it regenerates
    # from the seed, the table and stream (seed, 31) alone
    f = power(random_hermitian(d, np.random.default_rng(d)), 2)
    cert = certify(f, 300, seed=21)
    i = cert.checks["residual"].witness
    assert i >= d * (d - 1) // 2 + d + 300
    np.testing.assert_allclose(_replayed_worst_ray(f, 21, 300), cert.witnesses.rays[i],
                               rtol=0, atol=1e-14)


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


# The detection floors of the subspace scan that gleason ran up to report
# version 6, at its defaults (3 subspaces per dimension, 6 resamples): per
# dimension, seed and family of ``floor_families``, as ``_CHORD_FLOORS_D2``
_SUBSPACE_FLOORS = {
    3: {
        0: {"power2-rank1": 2.2e-08, "power3-rank1": 1.53e-08, "power2-random": 2.87e-09,
            "power3-random": 1.48e-09, "projection-product": 2e-08},
        11: {"power2-rank1": 2.05e-08, "power3-rank1": 1.57e-08, "power2-random": 2.75e-09,
             "power3-random": 9.75e-10, "projection-product": 2e-08},
        12: {"power2-rank1": 1.93e-08, "power3-rank1": 1.46e-08, "power2-random": 2.56e-09,
             "power3-random": 1.04e-09, "projection-product": 2e-08},
    },
    5: {
        0: {"power2-rank1": 3.36e-08, "power3-rank1": 3.1e-08, "power2-random": 1.03e-09,
            "power3-random": 4.35e-10, "projection-product": 2e-08},
        11: {"power2-rank1": 2.51e-08, "power3-rank1": 2.38e-08, "power2-random": 1e-09,
             "power3-random": 7.91e-10, "projection-product": 2e-08},
        12: {"power2-rank1": 2.34e-08, "power3-rank1": 2.26e-08, "power2-random": 1.23e-09,
             "power3-random": 4.91e-10, "projection-product": 2e-08},
    },
    24: {
        0: {"power2-rank1": 8.9e-08, "power3-rank1": 1.92e-07, "power2-random": 3.16e-10,
            "power3-random": 1.37e-10, "projection-product": 2e-08},
        11: {"power2-rank1": 7.28e-08, "power3-rank1": 1.42e-07, "power2-random": 3.15e-10,
             "power3-random": 1.21e-10, "projection-product": 2e-08},
        12: {"power2-rank1": 7.43e-08, "power3-rank1": 1.46e-07, "power2-random": 2.88e-10,
             "power3-random": 1.38e-10, "projection-product": 2e-08},
    },
}


@pytest.mark.parametrize("seed", sorted(_CHORD_FLOORS_D2))
def test_residual_floors_are_within_twice_the_chord_floors(seed):
    def worst(f):
        return certify(f, 1000, seed=seed).checks["residual"].worst

    floors = {name: detection_floor(worst, base, g) for name, base, g in floor_families(2, seed)}
    assert floors.keys() == _CHORD_FLOORS_D2[seed].keys()
    for name, floor in floors.items():
        assert floor <= 2 * _CHORD_FLOORS_D2[seed][name], name


@pytest.mark.parametrize("d, seed", [(d, s) for d in sorted(_SUBSPACE_FLOORS) for s in (0, 11, 12)])
def test_residual_floors_are_within_twice_the_subspace_floors(d, seed):
    def worst(f):
        return certify(f, seed=seed).checks["residual"].worst

    floors = {name: detection_floor(worst, base, g) for name, base, g in floor_families(d, seed)}
    assert floors.keys() == _SUBSPACE_FLOORS[d][seed].keys()
    for name, floor in floors.items():
        assert floor <= 2 * _SUBSPACE_FLOORS[d][seed][name], name


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


def _basis_spread(f, basis, rotations):
    # the spread of the summed observable over the basis, its Fourier mix and
    # its rotations w @ basis
    basis = np.asarray(basis, dtype=complex)
    j, k = np.meshgrid(np.arange(len(basis)), np.arange(len(basis)), indexing="ij")
    fourier = np.exp(2j * np.pi * j * k / len(basis)) / math.sqrt(len(basis))
    mus = [subspace_measure(f, w @ basis) for w in (np.eye(len(basis)), fourier, *rotations)]
    return max(mus) - min(mus)


def test_basis_independence_quadratic_flat():
    # a quadratic observable sums to Tr(F P_X) over any basis of X
    rng = np.random.default_rng(50)
    f = quadratic(random_hermitian(3, rng))
    assert _basis_spread(f, np.eye(3, dtype=complex), haar_unitaries(3, 6, rng)) < 1e-10


def test_basis_independence_power_spread():
    rng = np.random.default_rng(51)
    f = power(projector_matrix(3), 2)
    assert _basis_spread(f, np.eye(3, dtype=complex), haar_unitaries(3, 6, rng)) >= 0.5


def test_basis_independence_single_ray_spread_zero():
    rng = np.random.default_rng(52)
    f = power(projector_matrix(3), 2)
    rays = [np.array([0, 1, 0], dtype=complex)]
    assert _basis_spread(f, rays, haar_unitaries(1, 4, rng)) < 1e-12


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


def _family_observable(kind, d, rng):
    if kind == "quadratic":
        return quadratic(random_hermitian(d, rng))
    if kind == "power":
        return power(random_hermitian(d, rng), 3)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return custom(
        lambda psis: np.abs(psis[:, 0]) ** 6 - np.abs(psis @ v) ** 2, d, batch=True
    )


def _row_path(f):
    # the same evaluator without its matrices and terms, so the certifier
    # evaluates every row through values, as a custom observable's
    return dataclasses.replace(f, matrices=(), terms=(), _values=f.values)


# zero at e_0, e_1, e_2, and (<psi|A|psi>)^3 = (2 c Re(e^{i pi/4} conj(psi_0)
# psi_1))^3 with c^3 = 3e308: about 1.06e308 in size at the probes of the pair
# (0, 1), and past the largest float where the mix of e_0 and e_1 is nearer
# to e^{-i pi/4}
_OVERFLOWING = 3.0 ** (1 / 3) * 10.0 ** (308 / 3) * np.exp(0.25j * np.pi)
_OVERFLOWING_POWER = power(
    [[0, _OVERFLOWING, 0], [np.conj(_OVERFLOWING), 0, 0], [0, 0, 0]], 3
)


def test_non_finite_restricted_value_fails_loudly():
    # every probe and every fixed row of one Haar ray is finite, so the
    # operator is; the refinement climbs to a row that overflows, and
    # certify fails there, for an f with a matrix and for its row path
    f = _OVERFLOWING_POWER
    operator = polarization_reconstruct(f)
    assert np.all(np.isfinite(operator))
    for g in (f, _row_path(f)):
        values, _ = _ray_values(g, _residual_rays(3, 1, 0), operator)
        assert np.all(np.isfinite(values))
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            certify(g, 1, seed=0)


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(2, 13),
    k=st.integers(1, 3),
    log_scale=st.floats(-3.0, 3.0),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_restricted_measures_match_the_row_path(d, k, log_scale, n, seed):
    # f and <F> on the residual rows from one kernel call on A and F match
    # those from one values call and a product with F alone
    rng = np.random.default_rng(seed)
    matrix = random_hermitian(d, rng) * 10.0**log_scale
    f = quadratic(matrix) if k == 1 else power(matrix, k)
    operator = polarization_reconstruct(f)
    rays = _residual_rays(d, n, seed)
    values, expectation = _ray_values(f, rays, operator)
    ref_values, ref_expectation = _ray_values(_row_path(f), rays, operator)
    scale = max(1.0, np.linalg.norm(matrix, 2) ** k)
    assert np.max(np.abs(values - ref_values)) <= 1e-12 * scale
    assert np.max(np.abs(expectation - ref_expectation)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 8),
    kind=st.sampled_from(["quadratic", "power", "combine"]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_columns_replay_bit_for_bit(d, kind, n, seed):
    # the values column is f.values at the certificate's rays, and the
    # expectation column expectations(rays, F), bit for bit: a matrix's
    # products do not depend on the other matrices of a kernel call, nor on
    # which rows share a call
    rng = np.random.default_rng(seed)
    a, b = random_hermitian(d, rng), random_hermitian(d, rng)
    f = {"quadratic": quadratic(a), "power": power(a, 3),
         "combine": combine([1.0, 0.01], [quadratic(a), power(b, 2)])}[kind]
    cert = certify(f, n, seed=seed)
    rays = cert.witnesses.rays
    assert cert.witnesses.values.tobytes() == f.values(rays).tobytes()
    assert cert.witnesses.expectation.tobytes() == (
        expectations(rays, cert.operator)[0].tobytes())


def test_ray_values_temporaries_stay_block_sized():
    # f and <F> on the d = 24 residual rows (the fixed rays and 1,000 Haar
    # rays, 1,300 in all, 0.5 MB) allocate one row block's product at a
    # time, not a product or a conjugate copy of every row; allocation
    # sizes are deterministic, so the bound does not depend on timing
    rng = np.random.default_rng(24)
    f = power(random_hermitian(24, rng), 2)
    operator = polarization_reconstruct(f)
    rays = _residual_rays(24, 1000, 0)
    _ray_values(f, rays, operator)  # any one-time allocation happens here
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _ray_values(f, rays, operator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def _scorer_observable(kind, d, rng):
    if kind == "counting":
        return counting(power(random_projector(d, rng), 2))
    return _family_observable(kind, d, rng)


def _blocks_alone(f, rays, sizes, operator):
    # _ray_values of each block of rows in turn, concatenated column by column
    edges = np.cumsum([0, *sizes])
    parts = [_ray_values(f, rays[i:j], operator) for i, j in zip(edges[:-1], edges[1:])]
    return [np.concatenate(column) for column in zip(*parts)]


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 13),
    kind=st.sampled_from(["quadratic", "power", "counting", "custom"]),
    count=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_scorer_is_each_subspace_bit_for_bit(d, kind, count, data, seed):
    # one call on a stack of row blocks gives each block's f and <F> as a
    # call on that block alone, bit for bit, for blocks of two or more rows:
    # a row's values do not depend on the batch it is scored in
    sizes = data.draw(st.lists(st.integers(2, 300), min_size=count, max_size=count),
                      label="sizes")
    rng = np.random.default_rng(seed)
    f = _scorer_observable(kind, d, rng)
    operator = polarization_reconstruct(f)
    rays = random_pure_batch(sum(sizes), d, rng)
    stacked = _ray_values(f, rays, operator)
    for got, alone in zip(stacked, _blocks_alone(f, rays, sizes, operator)):
        assert got.tobytes() == alone.tobytes()


def test_stacked_scorer_fails_on_any_subspace_of_the_stack():
    # _OVERFLOWING_POWER is 0 on span{e0, e2} and span{e1, e2}, and
    # overflows on mixes of e0 and e1 near e^{-i pi/4}: a stack fails if any
    # of its rows does, and passes without them
    s = 1 / math.sqrt(2)
    rows = np.array([[1, 0, 0], [0, 0, 1], [s, s * np.exp(-0.25j * np.pi), 0],
                     [0, 1, 0], [0, s, s]], dtype=complex)
    operator = np.zeros((3, 3), dtype=complex)
    for g in (_OVERFLOWING_POWER, _row_path(_OVERFLOWING_POWER)):
        values, _ = _ray_values(g, rows[[0, 1, 3, 4]], operator)
        assert not values.any()
        for stack in (rows, rows[2:], rows[:3]):
            with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
                _ray_values(g, stack, operator)


@pytest.mark.parametrize("n", [1, 40])
def test_stacked_scorer_at_d140_is_each_subspace_bit_for_bit(n):
    # at d = 140 the products have more than 128 inner terms, where a
    # threaded product would round differently from the per-block ones: two
    # blocks of n + 1 rows score as each block alone, bit for bit
    rng = np.random.default_rng(n)
    f = power(random_hermitian(140, rng), 2)
    operator = random_hermitian(140, rng)
    rays = random_pure_batch(2 * (n + 1), 140, rng)
    stacked = _ray_values(f, rays, operator)
    for got, alone in zip(stacked, _blocks_alone(f, rays, [n + 1, n + 1], operator)):
        assert got.tobytes() == alone.tobytes()


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
    cert = certify(f, seed=54)
    assert cert.verdict == VERDICT_QUADRATIC
    assert np.max(np.abs(cert.operator - np.diag([0.2, 0.3, 0.5]))) < 1e-10


def test_gleason_power_non_quadratic_with_residual_witness():
    # the Fourier row has f = 1/9 against <F> = 1/3 - 2/9; refined rows
    # reach past 0.7
    f = counting(power(projector_matrix(3), 2))
    cert = certify(f, seed=55)
    assert cert.verdict == VERDICT_NON_QUADRATIC
    assert cert.worst_check == "residual" and cert.worst_violation >= 0.7


def test_gleason_always_firing_counter():
    f = counting(quadratic(np.eye(3, dtype=complex)))
    cert = certify(f, seed=56)
    assert cert.verdict == VERDICT_QUADRATIC
    assert np.max(np.abs(cert.operator - np.eye(3))) < 1e-10


def test_gleason_rejects_dim_two():
    with pytest.raises(ConfigError, match="gleason needs dimension >= 3, got 2"):
        _run_certifier("gleason", quadratic(np.eye(2, dtype=complex)))


@pytest.mark.parametrize("n_rays", [0, -1])
def test_certify_needs_a_ray(n_rays):
    # with none, the fixed rows alone would decide
    with pytest.raises(ValueError, match="need at least one ray"):
        certify(quadratic(np.eye(3, dtype=complex)), n_rays)


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf])
def test_certifiers_reject_a_tolerance_the_command_line_rejects(tolerance):
    # a tolerance <= 0 or NaN would call every observable non-quadratic
    for d in (2, 3):
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            certify(quadratic(np.eye(d, dtype=complex)), 10, tolerance=tolerance)


def test_gleason_workers_identical():
    # gleason_certify is certify under the name of the benchmark's layer
    # call, which passes a worker count
    f = quadratic(random_hermitian(4, np.random.default_rng(57)))
    a = nosignal.gleason_certify(f, seed=58, workers=1)
    b = nosignal.gleason_certify(f, seed=58, workers=4)
    assert a == b == certify(f, seed=58)


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
    # the one certifier recovers the tag in dimensions 2 and 3
    for entry in builtin_observables(2):
        cert = certify(entry.observable, 400, seed=59)
        assert (cert.verdict == VERDICT_QUADRATIC) == entry.is_quadratic, entry.name
    for entry in builtin_observables(3):
        cert = certify(entry.observable, seed=60)
        assert (cert.verdict == VERDICT_QUADRATIC) == entry.is_quadratic, entry.name


@pytest.mark.parametrize("seed", [0, 11, 12])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_builtin_verdicts_and_worst_checks_are_pinned(d, seed):
    # every zoo entry and random Hermitian quadratics at three scales get
    # their verdicts, the subspace scan's, with the residual as the worst
    # check, quadratic entries included
    rng = np.random.default_rng(seed)
    entries = [(e.name, e.observable, e.is_quadratic) for e in builtin_observables(d)]
    entries += [(f"quadratic-1e{p}", quadratic(random_hermitian(d, rng) * 10.0**p), True)
                for p in (-3, 0, 3)]
    for name, f, is_quadratic in entries:
        cert = certify(f, seed=seed)
        assert (cert.verdict == VERDICT_QUADRATIC) == is_quadratic, name
        assert cert.worst_check == "residual", name


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



def _haar_one_by_one(n, count, rng):
    # one QR per draw, as haar_unitary did before the draws were batched
    out = []
    for _ in range(count):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        out.append(q * (diag / np.abs(diag)))
    return np.array(out, dtype=complex).reshape(count, n, n)


def test_batched_haar_draws_match_one_qr_per_draw():
    for n, count in ((1, 3), (3, 0), (4, 6), (24, 2)):
        batch = haar_unitaries(n, count, np.random.default_rng([n, count]))
        single = _haar_one_by_one(n, count, np.random.default_rng([n, count]))
        assert batch.tobytes() == single.tobytes()


def test_psd_deficit_check_records_the_lowest_eigenpair():
    f = counting(power(projector_matrix(3), 2))
    cert = certify(f, seed=66)
    check = cert.checks["psd_deficit"]
    lam, vec = check.witness.eigenvalue, np.array(check.witness.eigenvector)
    assert check.count == 1 and check.worst == max(0.0, -lam)
    # the eigenvalue and the eigenvector come from one decomposition
    eigenvalues, eigenvectors = np.linalg.eigh(cert.operator)
    assert lam == eigenvalues[0] and np.array_equal(vec, eigenvectors[:, 0])
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    assert np.linalg.norm(cert.operator @ vec - lam * vec) <= 1e-10
    plain = certify(quadratic(random_hermitian(3, np.random.default_rng(67))), seed=66)
    assert list(plain.checks) == ["residual"]
    assert plain.worst_check in plain.checks


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 6),
    kind=st.sampled_from(["quadratic", "power", "custom"]),
    scale=st.floats(1e-3, 1e3),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_value_is_the_projector_trace_of_the_operator(d, kind, scale, n, seed):
    # each row's expectation is Tr(F P) of the projector P = |psi><psi| of
    # its ray, and its residual |value - expectation|, on every row
    f = combine([scale], [_family_observable(kind, d, np.random.default_rng(seed))])
    cert = certify(f, n, seed=seed)
    op, w = cert.operator, cert.witnesses
    bound = 64 * np.finfo(float).eps * d * max(1.0, np.linalg.norm(op, 2))
    traces = np.einsum("ij,kji->k", op, np.einsum("ki,kj->kij", w.rays, w.rays.conj())).real
    assert np.max(np.abs(w.expectation - traces)) <= bound
    assert np.max(np.abs(w.values - f.values(w.rays))) <= 1e-12 * max(1.0, np.abs(w.values).max())
    assert w.residual.tobytes() == np.abs(w.values - w.expectation).tobytes()


def test_certify_draws_only_from_the_ray_and_refinement_streams(monkeypatch):
    # one stream (seed, 30, k) per chunk of 256 Haar rays, then the one
    # refinement stream (seed, 31)
    paths = []

    def recording(seed, *path):
        paths.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(nosignal, "substream", recording)
    for f in (quadratic(random_hermitian(4, np.random.default_rng(68))),
              counting(power(projector_matrix(4), 2))):
        paths.clear()
        certify(f, 600, seed=69)
        assert paths == [(30, 0), (30, 1), (30, 2), (31,)]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 4),
    k=st.integers(1, 3),
    flag=st.booleans(),
)
def test_psd_deficit_is_checked_iff_counting(seed, d, k, flag):
    p = random_projector(d, np.random.default_rng(seed))
    f = quadratic(p) if k == 1 else power(p, k)
    if flag:
        f = counting(f)
    cert = certify(f, 10, seed=seed)
    assert ("psd_deficit" in cert.checks) == flag


# ROADMAP item 1's cases: an absolute tolerance called the two 1e8
# quadratics non-quadratic (rounding of about 5e-8) and the two 1e-8 powers
# quadratic-consistent (a worst of about 6e-9)
@pytest.mark.parametrize("f, verdict", [
    pytest.param(quadratic(1e8 * np.array([[1.0, 0.3], [0.3, -0.5]])), VERDICT_QUADRATIC,
                 id="quadratic-1e8-d2"),
    pytest.param(quadratic(1e8 * np.diag([1.0, 0.2, -0.7])), VERDICT_QUADRATIC,
                 id="quadratic-1e8-d3"),
    pytest.param(combine([1e-8], [power(PROJ0_2, 2)]), VERDICT_NON_QUADRATIC,
                 id="power2-1e-8-d2"),
    pytest.param(combine([1e-8], [power(projector_matrix(3), 2)]), VERDICT_NON_QUADRATIC,
                 id="power2-1e-8-d3"),
])
def test_verdict_does_not_depend_on_the_scale_of_f(f, verdict):
    cert = certify(f, 10000, seed=7)
    assert cert.verdict == verdict


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 5), log_a=st.floats(-6.0, 8.0), b_over_a=st.floats(-1e6, 1e6),
       seed=st.integers(0, 2**32 - 1))
@example(d=2, log_a=0.0, b_over_a=-1.0, seed=0)
def test_verdicts_are_unchanged_under_scale_and_offset(d, log_a, b_over_a, seed):
    # f -> a f + b I, a in [1e-6, 1e8] and |b| <= 1e6 a, moves no verdict of
    # the zoo: the residual, the probe spread and the float floor all scale
    # with a, and an offset moves only the floor.  The example makes the
    # identity entry f = 0, whose spread and residual are both 0
    a = 10.0**log_a
    identity = quadratic(np.eye(d, dtype=complex))
    for entry in builtin_observables(d):
        f = combine([a, b_over_a * a], [entry.observable, identity])
        cert = certify(f, 300, seed=seed)
        assert (cert.verdict == VERDICT_QUADRATIC) == entry.is_quadratic, entry.name
