"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run ``pytest -s`` to see them inline).
All randomness is seed-pinned; every criterion runs at desk scale.
"""

import numpy as np

from eprsignal import (
    certify,
    channel_capacity,
    conditional_ensemble,
    exact_gap,
    monte_carlo_report,
    polarization_reconstruct,
    power,
    quadratic,
    rebase_alice,
)
from eprsignal.cli import bundled_config_names, load_config, parse_config, run
from eprsignal.nosignal import VERDICT_NON_QUADRATIC, VERDICT_QUADRATIC

from helpers import (
    PROJ0_2,
    bell_power_scenario,
    counting,
    ensemble_density,
    partial_trace_a,
    projector_matrix,
    random_entangled,
    random_hermitian,
    random_scenario,
    rotated_alice_basis,
    state_vector,
)


def _verdict(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_density_coincidence():
    rng = np.random.default_rng(1001)
    worst_pair, worst_pt = 0.0, 0.0
    for _ in range(100):
        da = int(rng.integers(2, 6))
        db = int(rng.integers(2, 6))
        n = int(rng.integers(1, da + 1))
        state = random_entangled(rng, da, db, n)
        rebased = rebase_alice(state, rotated_alice_basis(state, rng))
        rho_a = ensemble_density(conditional_ensemble(state)).mat
        rho_b = ensemble_density(conditional_ensemble(rebased)).mat
        rho_pt = partial_trace_a(state_vector(state), da, db)
        worst_pair = max(worst_pair, float(np.linalg.norm(rho_a - rho_b)))
        worst_pt = max(
            worst_pt,
            float(np.linalg.norm(rho_a - rho_pt)),
            float(np.linalg.norm(rho_b - rho_pt)),
        )
    _verdict(
        "criterion 1: density coincidence over 100 random states",
        worst_pair < 1e-10 and worst_pt < 1e-12,
        f"worst ensemble split {worst_pair:.2e}, worst vs partial trace {worst_pt:.2e}",
    )


def test_criterion_2_quadratic_no_signal():
    rng = np.random.default_rng(1002)
    worst_gap = 0.0
    quiet = 0
    for seed in range(100):
        da = int(rng.integers(2, 6))
        db = int(rng.integers(2, 6))
        n = int(rng.integers(1, da + 1))
        sc = random_scenario(quadratic(random_hermitian(db, rng)), da, n, rng)
        worst_gap = max(worst_gap, abs(exact_gap(sc).gap))
        if monte_carlo_report(sc, 100000, seed=seed).z < 5.0:
            quiet += 1
    _verdict(
        "criterion 2: quadratic observables never signal",
        worst_gap < 1e-10 and quiet >= 99,
        f"worst exact gap {worst_gap:.2e}, z<5 in {quiet}/100 runs",
    )


def test_criterion_3_bell_power_signals():
    sc = bell_power_scenario()
    report = monte_carlo_report(sc, 100000, seed=1003)
    channel = channel_capacity(sc, 1000, 200, seed=1003)
    gap_exact = abs(report.gap - 0.25) <= 1e-12
    _verdict(
        "criterion 3: bundled signaling scenario",
        gap_exact and report.z > 5.0 and channel.bit_error_rate < 0.01,
        f"gap {report.gap!r}, z {report.z:.1f}, block error rate "
        f"{channel.bit_error_rate}",
    )


def test_criterion_4_affinity_certifier():
    rng = np.random.default_rng(1004)
    worst_quad = 0.0
    for matrix in (
        np.eye(2, dtype=complex),
        PROJ0_2,
        random_hermitian(2, rng),
        random_hermitian(2, rng),
    ):
        cert = certify(quadratic(matrix), 1000, seed=1004)
        worst_quad = max(worst_quad, cert.worst_violation)
    cert_power = certify(power(PROJ0_2, 2), 1000, seed=1004)
    _verdict(
        "criterion 4: ray-residual affinity certifier",
        worst_quad < 1e-9 and cert_power.worst_violation >= 0.2,
        f"quadratic worst {worst_quad:.2e}, power witness "
        f"{cert_power.worst_violation:.3f}",
    )


def test_criterion_5_gleason_certifier():
    rng = np.random.default_rng(1005)
    ok = True
    detail = []
    for d in (3, 4, 5):
        matrix = random_hermitian(d, rng)
        cert = certify(quadratic(matrix), seed=1005)
        mismatch = float(np.max(np.abs(cert.operator - matrix)))
        ok = ok and cert.verdict == VERDICT_QUADRATIC and mismatch < 1e-10
        detail.append(f"d={d} mismatch {mismatch:.1e}")
    cert = certify(counting(power(projector_matrix(3), 2)), seed=1005)
    ok = ok and cert.verdict == VERDICT_NON_QUADRATIC and cert.worst_violation >= 0.5
    detail.append(f"power residual {cert.worst_violation:.3f}")
    _verdict(
        "criterion 5: ray-residual certifier in d >= 3", ok, ", ".join(detail)
    )


def test_criterion_6_polarization_identity():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for i in range(50):
        d = 2 + i % 5
        matrix = random_hermitian(d, rng)
        rec = polarization_reconstruct(quadratic(matrix))
        worst = max(worst, float(np.max(np.abs(rec - matrix))))
    _verdict(
        "criterion 6: polarization reconstruction is the identity",
        worst < 1e-10,
        f"worst entrywise error {worst:.2e}",
    )


def test_criterion_7_monte_carlo_convergence():
    sc = bell_power_scenario()
    hits = 0
    for seed in range(1000):
        r = monte_carlo_report(sc, 10000, seed=seed)
        pooled = np.hypot(r.stderr_b, r.stderr_bprime)
        if abs((r.mc_fb - r.mc_fbprime) - r.gap) <= 6.0 * pooled:
            hits += 1
    _verdict(
        "criterion 7: Monte-Carlo gap within 6 pooled stderr",
        hits >= 990,
        f"{hits}/1000 seeded runs inside the band",
    )


def test_criterion_8_bundled_configs_deterministic(tmp_path):
    ok = True
    detail = []
    for name in bundled_config_names():
        outputs = []
        for i, workers in enumerate((1, 1, 4)):
            out = tmp_path / f"{name}-{i}.json"
            cfg = parse_config(load_config(name),
                               {"workers": workers, "out": str(out)})
            code, _ = run(cfg)
            ok = ok and code == 0
            outputs.append(out.read_bytes())
        same = outputs[0] == outputs[1] == outputs[2]
        ok = ok and same
        detail.append(f"{name}: {'stable' if same else 'DRIFTS'}")
    _verdict(
        "criterion 8: bundled configs byte-identical across runs and workers",
        ok,
        ", ".join(detail),
    )
