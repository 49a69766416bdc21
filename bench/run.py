"""eprsignal benchmark: end-to-end CLI runs, or one traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/`` is put on the path, the
package need not be installed.  ``--trace 0`` runs the real CLI in a child
process per invocation, one at a time (a closed loop with one client and
``--workers 1``), for S seconds, and reports the end-to-end metrics,
scaled by a calibration kernel timed between the children (see
``calibrate``).
``--trace 1`` calls ``cli.main`` in this process with the layers wrapped
(see tracer.py) and reports the per-layer metrics.  Every report is checked
(see workloads.py).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
run's provenance.  Metrics and workloads are described in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI_SOURCE = ROOT / "src" / "eprsignal" / "cli.py"
WORK = ROOT / ".bench_work"

MIN_RUNS = 3  # timed invocations and set-ups per run, even past --seconds
# Sizes of the calibration kernel's three parts, and its time on a quiet
# host (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4): the
# end-to-end times are reported at that speed.
CAL_LOOP, CAL_SMALL, CAL_BULK = 150_000, 1_000, 4
CAL_REFERENCE_S = 0.08
RSS_MB = 1024.0  # ru_maxrss is in KiB on Linux


def spawn(argv: list[str], out: Path, err: Path) -> tuple[int, float, float]:
    """Run ``python argv`` with stdout/stderr to files; returns (exit code,
    wall seconds from spawn to exit, peak RSS in MB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                         file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / RSS_MB


class Checker:
    """Counts checked reports; the first report is the byte reference."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.reference: bytes | None = None
        self.attempted = 0
        self.errors: list[str] = []

    def check(self, code: int, text: bytes, stderr: str = "") -> bool:
        self.attempted += 1
        try:
            if code != 0:
                raise workloads.CheckFailed(f"exit code {code}: {stderr[-500:]}")
            workloads.check_report(self.workload, text, self.reference)
        except workloads.CheckFailed as err:
            self.errors.append(str(err))
            return False
        finally:
            if self.reference is None:
                self.reference = text
        return True


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of work: a pure-Python
    dict loop, small complex-matrix numpy calls and bulk array passes, the
    three kinds of work the workloads do.  It measures how fast the host is
    running at this moment; nothing in eprsignal can change it."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CAL_LOOP):
        table[i & 1023] = table.get(i & 1023, 0) + 3 * i
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    for _ in range(CAL_SMALL):
        q, _ = np.linalg.qr(a)
        (q @ a).trace()
    for _ in range(CAL_BULK):
        x = rng.random(500_000)
        (x * x).sum()
        np.cumsum(x)
    return time.perf_counter() - start


def end_to_end(wl: workloads.Workload, seconds: float, work: Path,
               checker: Checker) -> tuple[dict, dict]:
    """End-to-end metrics, plus the raw timings for the provenance line."""
    config = work / "config.json"
    config.write_bytes(wl.config_bytes())
    child = str(BENCH / "child.py")
    timing, out, err = work / "timing.json", work / "report.json", work / "stderr"
    run_argv = [child, "run", str(timing), "--",
                wl.command, "--config", str(config), "--workers", "1"]

    def invoke() -> tuple[float, float, float] | None:
        code, wall, rss = spawn(run_argv, out, err)
        ok = checker.check(code, out.read_bytes(), err.read_text())
        if not ok:
            return None
        return wall, json.loads(timing.read_text())["main_s"], rss

    def set_up() -> float | None:
        code, _, _ = spawn([child, "setup", str(timing), str(config)], out, err)
        if code == 0:
            return json.loads(timing.read_text())["setup_s"]
        checker.attempted += 1
        checker.errors.append(f"set-up exit code {code}: {err.read_text()[-500:]}")
        return None

    # One invocation, then one set-up, until the next pair would end after
    # --seconds, with the calibration kernel timed between every two
    # children.  Each child's times are divided by the mean of the two
    # calibrations around it: the shared host this was built on slows all
    # CPU work by up to 2x for seconds to minutes at a time, and the kernel
    # slows with it, so the ratio keeps what the program itself costs.
    runs, setups = [], []
    cals = [calibrate()]
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or (time.perf_counter() - start) * (len(runs) + 1) / len(runs) <= seconds:
        sample = invoke()
        cals.append(calibrate())
        runs.append(None if sample is None else (*sample, (cals[-2] + cals[-1]) / 2))
        setup = set_up()
        cals.append(calibrate())
        if setup is not None:
            setups.append((setup, (cals[-2] + cals[-1]) / 2))
    runs = [r for r in runs if r is not None]
    if not runs or not setups:
        return {}, {}
    walls, mains, rsses, run_cals = zip(*runs)
    setup_times, setup_cals = zip(*setups)

    def scaled(times, scales) -> float:
        """Median of time / calibration, in seconds at the reference speed."""
        return CAL_REFERENCE_S * statistics.median(t / c for t, c in zip(times, scales))

    metrics = {
        "wall_s": metric(scaled(walls, run_cals), "s"),
        "setup_s": metric(scaled(setup_times, setup_cals), "s"),
        "items_per_s": metric(wl.items / scaled(mains, run_cals), "1/s"),
        "peak_rss_mb": metric(statistics.median(rsses), "MB"),
    }
    raw = {"invocations": len(walls), "setups": len(setup_times),
           "raw_median_wall_s": statistics.median(walls),
           "raw_median_setup_s": statistics.median(setup_times),
           "raw_median_main_s": statistics.median(mains),
           "median_calibration_s": statistics.median(cals)}
    return metrics, raw


def import_package() -> types.SimpleNamespace:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from eprsignal import cli, nosignal, serialize, signaling

    return types.SimpleNamespace(
        cli=cli, nosignal=nosignal, serialize=serialize, signaling=signaling)


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# Per-layer metrics: name -> (unit, source).  "<layer>:<field>" reads a field
# of Tracer.summary(), "amount:<key>" reads Tracer.amounts, and None marks a
# value traced() measures itself.
PER_LAYER = {
    "streams.pool_mean_var.calls": ("count", "streams.pool_mean_var:calls"),
    "streams.pool_mean_var.partials": ("count", "amount:streams.pool_mean_var.partials"),
    "streams.pool_mean_var.self_s": ("s", "streams.pool_mean_var:self_s"),
    "streams.substream.calls": ("count", "streams.substream:calls"),
    "streams.run_chunked.speedup_w2": ("x", None),
    "signaling.monte_carlo_report.s": ("s", "signaling.monte_carlo_report:s"),
    "signaling.convergence.s": ("s", None),
    "signaling.draw.s": ("s", None),
    "signaling.exact_gap.calls": ("count", "signaling.exact_gap:calls"),
    "signaling.channel_capacity.s": ("s", "signaling.channel_capacity:s"),
    "states.rebase_alice.calls": ("count", "states.rebase_alice:calls"),
    "states.rebase_alice.s": ("s", "states.rebase_alice:s"),
    "states.conditional_ensemble.calls": ("count", "states.conditional_ensemble:calls"),
    "hilbert.bloch_state.calls": ("count", "hilbert.bloch_state:calls"),
    "hilbert.bloch_state.self_s": ("s", "hilbert.bloch_state:self_s"),
    "hilbert.haar_unitary.calls": ("count", "hilbert.haar_unitary:calls"),
    "hilbert.haar_unitary.self_s": ("s", "hilbert.haar_unitary:self_s"),
    "observables.values.calls": ("count", "observables.values:calls"),
    "observables.values.rows": ("count", "amount:observables.values.rows"),
    "observables.values.rows_per_call": ("rows", None),
    "observables.values.self_s": ("s", "observables.values:self_s"),
    "observables.counting_init.s": ("s", "observables.counting_init:s"),
    "observables.polarization_reconstruct.s": (
        "s", "observables.polarization_reconstruct:s"),
    "nosignal.affinity_scan.self_s": ("s", "nosignal.affinity_scan:self_s"),
    "nosignal.gleason_certify.self_s": ("s", "nosignal.gleason_certify:self_s"),
    "nosignal.basis_independence.calls": ("count", "nosignal.basis_independence:calls"),
    "nosignal.basis_independence.self_s": ("s", "nosignal.basis_independence:self_s"),
    "nosignal.witnesses": ("count", None),
    "serialize.decode.s": ("s", "serialize.decode:s"),
    "serialize.encode.s": ("s", "serialize.encode:s"),
    "serialize.dumps_canonical.s": ("s", "serialize.dumps_canonical:s"),
    "serialize.report_bytes": ("B", "amount:serialize.dumps_canonical.bytes"),
    "trace.overhead_s": ("s", None),
}


def _from_trace(tracer: Tracer) -> dict[str, float]:
    summary = tracer.summary()
    out = {}
    for name, (_, source) in PER_LAYER.items():
        if source is None:
            continue
        if source.startswith("amount:"):
            out[name] = tracer.amounts[source.removeprefix("amount:")]
        else:
            layer, field = source.split(":")
            out[name] = summary.get(layer, {}).get(field, 0)
    calls = out["observables.values.calls"]
    out["observables.values.rows_per_call"] = (
        out["observables.values.rows"] / calls if calls else 0.0)
    return out


def traced(wl: workloads.Workload, seconds: float, work: Path,
           checker: Checker) -> tuple[dict, dict]:
    """Per-layer metrics, plus the absent layers and the last call's layer
    summary for the provenance line."""
    m = import_package()
    config = work / "config.json"
    config.write_bytes(wl.config_bytes())
    out = work / "report.json"
    argv = [wl.command, "--config", str(config), "--workers", "1"]

    def main_once() -> float:
        with open(out, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                code = m.cli.main(argv)
            except Exception:  # a crash is a failed run, not the end
                code, detail = 1, traceback.format_exc()
            else:
                detail = ""
            elapsed = time.perf_counter() - start
        checker.check(code, out.read_bytes(), detail)
        return elapsed

    def layer_once(fn, *args) -> float | None:
        try:
            return timed(fn, *args)
        except AttributeError as err:  # a layer a later version removed
            absent.add(str(err))
            return None

    absent: set[str] = set()
    layers: list[dict] = []
    rounds: list[dict[str, float]] = []
    counts: dict[str, float] | None = None
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        plain = main_once()
        tracer = Tracer()
        tracer.install()
        try:
            with_trace = main_once()
        finally:
            tracer.restore()
        row = _from_trace(tracer)
        layers = [{"layer": k, **v} for k, v in sorted(tracer.summary().items())]
        row["trace.overhead_s"] = with_trace - plain
        absent.update(tracer.absent)
        call = wl.layer(m, wl.config)
        w1 = layer_once(call, 1)
        w2 = layer_once(call, 2)
        row["streams.run_chunked.speedup_w2"] = w1 / w2 if w1 and w2 else 0.0
        if wl.command == "simulate":
            off = layer_once(call, 1, False)
            row["signaling.convergence.s"] = w1 - off if w1 and off else 0.0
            sc = m.serialize.scenario_from_json(wl.config["scenario"])
            n, seed = wl.config["n_samples"], wl.config["seed"]
            draw = layer_once(lambda: [m.signaling.per_sample_values(sc, letter, n, seed)
                                       for letter in (0, 1)])
            row["signaling.draw.s"] = draw or 0.0
        row_counts = {k: v for k, v in row.items() if PER_LAYER[k][0] not in ("s", "x")}
        if counts is None:
            counts = row_counts
        elif row_counts != counts:
            checker.attempted += 1
            checker.errors.append(f"layer counts changed between calls: {row_counts}")
        rounds.append(row)

    try:
        witnesses = json.loads(checker.reference)["result"].get("witnesses", [])
    except (TypeError, ValueError, KeyError):  # no report, or a broken one
        witnesses = []
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        values = [r.get(name, 0.0) for r in rounds]
        metrics[name] = metric(statistics.median(values), unit)
    metrics["nosignal.witnesses"] = metric(len(witnesses), "count")
    return metrics, {"absent": sorted(absent), "layers": layers}


def git_state() -> dict:
    def git(*args) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"git_sha": sha, "git_dirty": bool(status) if status is not None else None}


def provenance(wl: workloads.Workload, seed: int) -> dict:
    generated = {}
    for name, make in workloads.WORKLOADS.items():
        other = wl if name == wl.name else make(ROOT, seed)
        generated[name] = {"items": other.items,
                           "config_sha256": hashlib.sha256(other.config_bytes()).hexdigest()}
    return {
        **git_state(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": wl.name,
        "seed": seed,
        "workloads": generated,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the child and
    # remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not CLI_SOURCE.is_file():
        print(f"error: no eprsignal source at {CLI_SOURCE.relative_to(ROOT)}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    work = WORK / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    checker = Checker(wl)
    details: dict = {}
    try:
        if args.trace:
            metrics, details = traced(wl, args.seconds, work, checker)
        else:
            metrics, details = end_to_end(wl, args.seconds, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    failed = len(checker.errors)
    prov = provenance(wl, args.seed)
    prov.update(trace=args.trace, errors=checker.errors[:10], **details)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": max(checker.attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
