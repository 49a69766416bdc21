"""Smoke test of the benchmark itself, at tiny scale (a few seconds).

    python3 bench/selftest.py

Runs each workload at a small size through the real CLI, checks that its
output checks pass on the real report and reject deliberately corrupted
ones, that the tracer counts what it wraps and reports a missing name as
absent, and that both benchmark modes produce every metric BENCHMARK.json
names.  Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys

import run
import tracer
import workloads

ROOT = run.ROOT
SEED = 7


def tiny_workloads() -> list[workloads.Workload]:
    return [
        workloads.simulate_bell(ROOT, SEED, n_samples=20000),
        workloads.capacity_bell(ROOT, SEED, trials=2000),
        workloads.affinity_power(ROOT, SEED, n_chords=50),
        workloads.gleason_counting(ROOT, SEED, d=4),
    ]


def cli_report(m, wl: workloads.Workload, work) -> bytes:
    config, out = work / "config.json", work / "report.json"
    config.write_bytes(wl.config_bytes())
    code = m.cli.main([wl.command, "--config", str(config), "--workers", "1",
                       "--out", str(out)])
    assert code == 0, f"{wl.name}: exit code {code}"
    return out.read_bytes()


def rejects(wl: workloads.Workload, text: bytes, reference: bytes | None = None) -> bool:
    try:
        workloads.check_report(wl, text, reference)
    except workloads.CheckFailed:
        return True
    return False


def corrupted(text: bytes, edit) -> bytes:
    report = json.loads(text)
    edit(report["result"])
    return json.dumps(report).encode()


def test_checks(m, work) -> None:
    corruptions = {
        "simulate-bell": [
            lambda r: r.update(z=1.0),
            lambda r: r.update(gap=0.2),
            lambda r: r.update(mc_fb=r["mc_fb"] + 1.0),
        ],
        "capacity-bell": [
            # 10 sigma off the exact rate, for the tiny run's 2000 trials
            lambda r: r.update(bit_error_rate=workloads.BELL_BER + 10 * math.sqrt(
                workloads.BELL_BER * (1 - workloads.BELL_BER) / 2000)),
            lambda r: r.update(trials=1000),
        ],
        "affinity-power2": [
            lambda r: r.update(verdict="quadratic-consistent"),
            lambda r: r.update(worst_violation=0.2),
        ],
        "gleason-counting4": [
            lambda r: r.update(verdict="non-quadratic"),
            lambda r: r["operator"][0][1].__setitem__(0, r["operator"][0][1][0] + 1e-6),
        ],
    }
    for wl in tiny_workloads():
        text = cli_report(m, wl, work)
        assert not rejects(wl, text), f"{wl.name}: a correct report was rejected"
        assert not rejects(wl, text, text), f"{wl.name}: identical bytes rejected"
        flipped = bytearray(text)
        flipped[len(flipped) // 2] ^= 0x01
        assert rejects(wl, bytes(flipped), text), f"{wl.name}: flipped byte accepted"
        for edit in corruptions[wl.name]:
            assert rejects(wl, corrupted(text, edit)), f"{wl.name}: corruption accepted"
        assert rejects(wl, b"{}"), f"{wl.name}: empty report accepted"
        print(f"PASS checks {wl.name}")


def test_tracer(m, work) -> None:
    wl = workloads.gleason_counting(ROOT, SEED, d=4)
    original = m.nosignal.haar_unitary
    t = tracer.Tracer()
    t.install((*tracer.LAYERS, ("gone.layer", "nosignal", "no_such_name", "span")))
    try:
        cli_report(m, wl, work)
    finally:
        t.restore()
    assert m.nosignal.haar_unitary is original, "restore left a wrapper behind"
    summary = t.summary()
    assert summary["nosignal.basis_independence"]["calls"] == wl.items, summary
    assert summary["observables.counting_init"]["calls"] == 1, summary
    assert t.absent == ["nosignal.no_such_name"], t.absent
    for name, row in summary.items():
        assert row["self_s"] <= row["s"] + 1e-9, (name, row)
    print("PASS tracer")


def test_modes(work) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in tiny_workloads():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            checker = run.Checker(wl)
            mode = run.traced if trace else run.end_to_end
            metrics, details = mode(wl, 0.01, work, checker)
            if trace:
                assert details["absent"] == [] and details["layers"], details
            names = {entry["name"]: entry["unit"] for entry in spec[section]}
            assert {k: v["unit"] for k, v in metrics.items()} == names, (
                wl.name, sorted(set(names) ^ set(metrics)))
            assert checker.errors == [] and checker.attempted >= 1, checker.errors
            print(f"PASS mode trace={trace} {wl.name}")


def main() -> int:
    m = run.import_package()
    work = run.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        test_checks(m, work)
        test_tracer(m, work)
        test_modes(work)
    except AssertionError as err:
        print(f"FAIL {err}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
