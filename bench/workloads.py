"""The benchmark's workloads: generated configs, item counts, output checks
and the layer call each command makes.

Every config is written from the workload seed alone; the program sees only
the generated file.  The reasons for each workload are in README.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The bundled signaling scenario: a Bell pair, letters Z and X on the A side,
# and the squared projector (<psi|0><0|psi>)^2 on the B side.  Letter 0 sends
# |0> or |1> (f = 1 or 0), letter 1 sends |+> or |-> (f = 1/4), so the exact
# gap is 1/2 - 1/4.
BELL_CONFIG = Path("src/eprsignal/configs/bell-power.json")
BELL_GAP = 0.25
# capacity on bell-power: a block of 10 letter-1 draws has f = 1/4 each, a
# block of letter 0 has f in {0, 1}; the decoder threshold is 3/8, so a
# letter-0 block is misread when at most 3 of its 10 draws give f = 1:
# BER = 1/2 * P(Bin(10, 1/2) <= 3) = 176/2048.
BELL_BER = 176 / 2048
Z_MIN = 5.0
SIGMAS = 5.0
TOL_OPERATOR = 1e-9
# affinity on P = |0><0|, k = 2: the deterministic centre-diameter probes
# alone reach a violation of 1/4
AFFINITY_MIN_VIOLATION = 0.25 - 1e-9


class CheckFailed(Exception):
    """A report that breaks one of the workload's output checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _unpairs(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def bell_scenario(root: Path) -> dict:
    return json.loads((root / BELL_CONFIG).read_text())["scenario"]


def counting_matrix(d: int, seed: int) -> np.ndarray:
    """F = U diag(linspace(0, 1, d)) U^dagger with U Haar from the seed."""
    rng = np.random.default_rng([seed, d])
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    f = u @ np.diag(np.linspace(0.0, 1.0, d)) @ u.conj().T
    return (f + f.conj().T) / 2.0


@dataclass(frozen=True)
class Workload:
    """One CLI invocation and what its report must satisfy."""

    name: str
    command: str
    config: dict
    items: int
    check: Callable[[dict, dict], None]  # (config, report) -> raises CheckFailed
    # (eprsignal modules, config) -> the command's layer call as a function
    # of the worker count, with its inputs already built
    layer: Callable[[object, dict], Callable[..., object]]

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, sort_keys=True) + "\n").encode()


def check_simulate(config: dict, report: dict) -> None:
    r = report["result"]
    _require(abs(r["gap"] - BELL_GAP) <= 1e-12, f"exact gap {r['gap']} is not 0.25")
    _require(r["z"] >= Z_MIN, f"z = {r['z']} is below {Z_MIN}")
    se = math.hypot(r["stderr_b"], r["stderr_bprime"])
    miss = abs(r["mc_fb"] - r["mc_fbprime"] - r["gap"])
    _require(miss <= SIGMAS * se, f"Monte-Carlo gap misses the exact gap by {miss}")


def check_capacity(config: dict, report: dict) -> None:
    r = report["result"]
    ber, trials = r["bit_error_rate"], config["trials"]
    _require(r["trials"] == trials, f"report has {r['trials']} trials, not {trials}")
    sigma = math.sqrt(BELL_BER * (1.0 - BELL_BER) / trials)
    _require(abs(ber - BELL_BER) <= SIGMAS * sigma,
             f"bit error rate {ber} is more than {SIGMAS} sigma from {BELL_BER}")


def check_affinity(config: dict, report: dict) -> None:
    r = report["result"]
    _require(r["verdict"] == "non-quadratic", f"verdict is {r['verdict']!r}")
    _require(r["worst_violation"] >= AFFINITY_MIN_VIOLATION,
             f"worst violation {r['worst_violation']} is below 1/4")


def check_gleason(config: dict, report: dict) -> None:
    r = report["result"]
    _require(r["verdict"] == "quadratic-consistent", f"verdict is {r['verdict']!r}")
    f = _unpairs(config["observable"]["F"])
    err = float(np.max(np.abs(_unpairs(r["operator"]) - f)))
    _require(err <= TOL_OPERATOR, f"reconstructed operator misses F by {err}")


def simulate_layer(m, c):
    sc = m.serialize.scenario_from_json(c["scenario"])
    return lambda workers, track_convergence=True: m.signaling.monte_carlo_report(
        sc, c["n_samples"], seed=c["seed"], workers=workers,
        track_convergence=track_convergence)


def capacity_layer(m, c):
    sc = m.serialize.scenario_from_json(c["scenario"])
    return lambda workers: m.signaling.channel_capacity(
        sc, c["block"], c["trials"], seed=c["seed"], workers=workers)


def affinity_layer(m, c):
    f = m.serialize.observable_from_json(c["observable"])
    return lambda workers: m.nosignal.affinity_scan(
        f, c["n_chords"], seed=c["seed"], workers=workers)


def gleason_layer(m, c):
    f = m.serialize.observable_from_json(c["observable"])
    return lambda workers: m.nosignal.gleason_certify(f, seed=c["seed"], workers=workers)


def simulate_bell(root: Path, seed: int, n_samples: int = 10**7) -> Workload:
    config = {"command": "simulate", "scenario": bell_scenario(root),
              "n_samples": n_samples, "seed": seed}
    return Workload("simulate-bell", "simulate", config, 2 * n_samples,
                    check_simulate, simulate_layer)


def capacity_bell(root: Path, seed: int, trials: int = 10**5) -> Workload:
    config = {"command": "capacity", "scenario": bell_scenario(root),
              "block": 10, "trials": trials, "seed": seed}
    return Workload("capacity-bell", "capacity", config, trials,
                    check_capacity, capacity_layer)


def affinity_power(root: Path, seed: int, n_chords: int = 10**4) -> Workload:
    projector = np.diag([1.0, 0.0]).astype(complex)
    config = {"command": "affinity",
              "observable": {"kind": "power", "P": _pairs(projector), "k": 2},
              "n_chords": n_chords, "seed": seed}
    return Workload("affinity-power2", "affinity", config, n_chords,
                    check_affinity, affinity_layer)


def gleason_counting(root: Path, seed: int, d: int = 24) -> Workload:
    # defaults of the CLI: 3 sampled subspaces of each dimension below d,
    # plus the full space
    subspaces = 3 * (d - 1) + 1
    config = {"command": "gleason",
              "observable": {"kind": "quadratic", "counting": True,
                             "F": _pairs(counting_matrix(d, seed))},
              "seed": seed}
    return Workload(f"gleason-counting{d}", "gleason", config, subspaces,
                    check_gleason, gleason_layer)


WORKLOADS = {
    "simulate-bell": simulate_bell,
    "capacity-bell": capacity_bell,
    "affinity-power2": affinity_power,
    "gleason-counting24": gleason_counting,
}


def check_report(workload: Workload, text: bytes, reference: bytes | None) -> None:
    """All checks on one report: the determinism contract, then the workload's."""
    if reference is not None:
        _require(text == reference, "report bytes differ from the first run")
        return
    try:
        report = json.loads(text)
    except ValueError as err:
        raise CheckFailed(f"report is not JSON ({err})") from err
    try:
        workload.check(workload.config, report)
    except (KeyError, TypeError, ValueError) as err:
        raise CheckFailed(f"report lacks a checked field ({err!r})") from err
