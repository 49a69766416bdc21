"""Command-line front end: seeded reproducible runs over JSON configs.

Commands map onto the library one-to-one: ``gap`` and ``simulate`` report
signal gaps (exact / Monte-Carlo), ``capacity`` decodes letter blocks,
and ``affinity`` (dimension 2), ``gleason`` (dimension >= 3) and ``certify``
(any dimension) run the one certifier.

Exit codes: 0 success, 1 usage or validation error, 2 when a signal was
detected although the config declared none expected (CI gating).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy

from . import __version__
from .hilbert import TOL_DECISION
from .nosignal import VERDICT_NON_QUADRATIC, Certificate, certify
from .serialize import (
    certificate_to_json,
    channel_report_to_json,
    dumps_canonical,
    observable_from_json,
    scenario_from_json,
    signal_report_to_json,
    witnesses_to_json,
)
from .signaling import (
    Z_THRESHOLD,
    channel_capacity,
    exact_gap,
    monte_carlo_report,
    per_sample_values,
)
from .streams import STREAM_VERSION

COMMANDS = ("gap", "simulate", "capacity", "affinity", "gleason", "certify")
CERTIFIERS = ("affinity", "gleason", "certify")
REPORT_VERSION = 7
# RunConfig fields that only say where and how output goes; the report's
# meta block leaves them out, so its bytes do not depend on them
_OUTPUT_FIELDS = ("out", "format", "workers", "witnesses")


class ConfigError(ValueError):
    """Malformed config; the message carries the offending field path."""


class RunConfig(NamedTuple):
    """One run of a command: a JSON config merged with its command-line
    overrides, one field per config key (``parse_config`` validates it).
    ``_asdict`` gives the normalized config a report's ``meta`` records,
    less the ``_OUTPUT_FIELDS``."""

    command: str
    scenario: dict | None = None
    observable: dict | None = None
    n_samples: int = 10000
    n_chords: int = 1000
    block: int = 1000
    trials: int = 200
    seed: int = 0
    tolerance: float = TOL_DECISION
    expect: str | None = None
    out: str | None = None
    format: str = "json"
    workers: int = 1
    witnesses: str | None = None


# the top-level keys a config may hold
_CONFIG_KEYS = frozenset(RunConfig._fields)
# the least value of each integer field, in the order they are checked;
# simulate reports a sample variance per letter, so it needs n_samples >= 2
_INT_MINIMUMS = {"n_samples": 1, "n_chords": 1, "block": 1, "trials": 1,
                 "workers": 1, "seed": 0}


def _bundled_configs():
    # imported only where a bare name is resolved: it costs 10-19 ms
    from importlib import resources

    return resources.files("eprsignal").joinpath("configs")


def bundled_config_names() -> list[str]:
    return sorted(p.name.removesuffix(".json") for p in _bundled_configs().iterdir())


def load_config(path_or_name: str) -> dict:
    """Read a config file; bare names resolve to the bundled library."""
    p = Path(path_or_name)
    if not p.is_file():
        p = _bundled_configs().joinpath(f"{path_or_name.removesuffix('.json')}.json")
        if not p.is_file():
            raise ConfigError(
                f"config: {path_or_name!r} is neither a file nor one of the "
                f"bundled configs {bundled_config_names()}"
            )
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"config: cannot read {path_or_name!r} ({err})") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: invalid JSON ({err})") from err
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")
    return data


def parse_config(data: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a raw config dict (plus CLI overrides, of which None values
    are left out) into a RunConfig.  A key of either that names no RunConfig
    field is an error."""
    given = {k: v for k, v in (overrides or {}).items() if v is not None}
    for key in (*data, *given):
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config: unknown key {key!r}")
    merged = {**data, **given}
    command = merged.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command: must be one of {COMMANDS}, got {command!r}")
    config = RunConfig(**merged)

    for key, minimum in _INT_MINIMUMS.items():
        if key == "n_samples" and command == "simulate":
            minimum = 2
        val = getattr(config, key)
        if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
            raise ConfigError(f"{key}: must be an integer >= {minimum}, got {val!r}")
    tolerance = config.tolerance
    # the bound is False for NaN, infinities and ints beyond the float range
    finite = (
        isinstance(tolerance, (int, float))
        and not isinstance(tolerance, bool)
        and 0 < tolerance <= sys.float_info.max
    )
    if not finite:
        raise ConfigError(f"tolerance: must be a finite number > 0, got {tolerance!r}")
    if config.expect not in (None, "signal", "no-signal"):
        raise ConfigError(
            f"expect: must be 'signal', 'no-signal' or omitted, got {config.expect!r}"
        )
    if config.format not in ("json", "csv"):
        raise ConfigError(f"format: must be 'json' or 'csv', got {config.format!r}")
    if config.format == "csv" and command in ("gap", "capacity"):
        raise ConfigError(f"format: no CSV plot data defined for command {command!r}")

    scenario, observable = config.scenario, config.observable
    if command in CERTIFIERS and observable is None and isinstance(scenario, dict):
        observable = scenario.get("observable")
    if command in ("gap", "simulate", "capacity"):
        if not isinstance(scenario, dict):
            raise ConfigError(f"scenario: required for command {command!r}")
    else:
        if not isinstance(observable, dict):
            raise ConfigError(f"observable: required for command {command!r}")
    for key in ("out", "witnesses"):
        val = getattr(config, key)
        if val is not None and not (isinstance(val, str) and val):
            raise ConfigError(f"{key}: must be a path string, got {val!r}")
    if config.witnesses is not None and command not in CERTIFIERS:
        raise ConfigError(f"witnesses: no witness table for command {command!r}")
    return config._replace(observable=observable, tolerance=float(tolerance))


def _build_scenario(config: RunConfig):
    try:
        return scenario_from_json(config.scenario)
    except (KeyError, ValueError, TypeError) as err:
        raise ConfigError(f"scenario: {err}") from err


def _build_observable(config: RunConfig):
    try:
        return observable_from_json(config.observable)
    except (KeyError, ValueError, TypeError) as err:
        raise ConfigError(f"observable: {err}") from err


def _gap_detected(report, tolerance: float) -> bool:
    """Whether an exact gap is a signal: |gap| >= tolerance times the scale
    max(1, |exact_fb|, |exact_fbprime|), so that the rounding of two large
    letter means does not read as a signal."""
    scale = max(1.0, abs(report.exact_fb), abs(report.exact_fbprime))
    return abs(report.gap) >= tolerance * scale


def execute(config: RunConfig) -> tuple[dict, bool, object]:
    """Run the configured command; returns (result dict, signal detected,
    source), where the source is the scenario for ``simulate`` (its
    per-sample values), the certificate for a certifier (its plot data and
    witness table), and None otherwise."""
    cmd = config.command
    if cmd == "gap":
        report = exact_gap(_build_scenario(config))
        detected = _gap_detected(report, config.tolerance)
        return signal_report_to_json(report), detected, None
    if cmd == "simulate":
        scenario = _build_scenario(config)
        report = monte_carlo_report(scenario, config.n_samples, seed=config.seed,
                                    track_convergence=True)
        return signal_report_to_json(report), report.z >= Z_THRESHOLD, scenario
    if cmd == "capacity":
        scenario = _build_scenario(config)
        report = channel_capacity(scenario, config.block, config.trials, seed=config.seed)
        detected = _gap_detected(exact_gap(scenario), config.tolerance)
        return channel_report_to_json(report), detected, None

    observable = _build_observable(config)
    dim = observable.dim
    if cmd == "affinity" and dim != 2:
        raise ConfigError(f"observable: affinity needs dimension 2, got {dim}")
    if cmd == "gleason" and dim < 3:
        raise ConfigError(f"observable: gleason needs dimension >= 3, got {dim}")
    cert = certify(observable, config.n_chords, seed=config.seed, tolerance=config.tolerance)
    return certificate_to_json(cert), cert.verdict == VERDICT_NON_QUADRATIC, cert


def _plot_data(result: dict, source) -> str:
    """CSV rows for external plotting.  A certificate's residual rows give,
    in dimension 2, each ray's Bloch point with its observable value and
    residual, and in dimension >= 3 each row's index and residual; without
    a certificate, simulate's cumulative Monte-Carlo gap versus log-spaced
    sample counts."""
    if not isinstance(source, Certificate):
        lines = ["n,mc_gap,pooled_stderr"]
        for row in result["convergence"]:
            lines.append(f"{row['n']},{row['mc_gap']!r},{row['pooled_stderr']!r}")
    elif source.witnesses.rays.shape[1] > 2:
        lines = ["index,violation"]
        for i, r in enumerate(source.witnesses.residual.tolist()):
            lines.append(f"{i},{r!r}")
    else:
        w = source.witnesses
        lines = ["x,y,z,f_value,violation"]
        for (psi0, psi1), value, r in zip(w.rays.tolist(), w.values.tolist(),
                                          w.residual.tolist()):
            # (2 Re c, 2 Im c, |psi0|^2 - |psi1|^2), c = conj(psi0) psi1
            c = psi0.conjugate() * psi1
            z = (psi0 * psi0.conjugate() - psi1 * psi1.conjugate()).real
            lines.append(f"{2 * c.real!r},{2 * c.imag!r},{z!r},{value!r},{r!r}")
    return "\n".join(lines) + "\n"


def _meta(config: RunConfig) -> dict:
    """Provenance of a report: package, report and numpy versions (the
    report bytes are pinned on one numpy), the stream version of a sampled
    result, and the normalized config without its output settings.  No
    timestamps and no host data."""
    normal = config._asdict()
    for key in _OUTPUT_FIELDS:
        del normal[key]
    meta = {"version": __version__, "report_version": REPORT_VERSION,
            "numpy_version": numpy.__version__, "config": normal}
    if config.command in ("simulate", "capacity"):
        meta["stream_version"] = STREAM_VERSION
    return meta


def run(config: RunConfig, dump_samples: str | None = None) -> tuple[int, dict]:
    """Execute a validated config, write the report, the ``witnesses`` table
    and, for ``simulate``, the ``dump_samples`` CSV; return (exit code,
    report)."""
    _distinct_outputs({"--out": config.out, "--witnesses": config.witnesses,
                       "--dump-samples": dump_samples})
    result, detected, source = execute(config)
    report = {
        "command": config.command,
        "seed": config.seed,
        "tolerance": config.tolerance,
        "result": result,
        "meta": _meta(config),
    }
    text = _plot_data(result, source) if config.format == "csv" else dumps_canonical(report)
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)
    if config.witnesses:
        table = {"witnesses": witnesses_to_json(source)}
        Path(config.witnesses).write_text(dumps_canonical(table))
    if dump_samples and config.command == "simulate":
        _dump_samples(source, config, dump_samples)
    if config.expect == "no-signal" and detected:
        return 2, report
    return 0, report


def _distinct_outputs(paths: dict) -> None:
    """Reject, before anything runs or is written, an output path that is a
    directory or lies in none, and two output flags that name one file,
    which the later write would replace silently."""
    seen = {}
    for flag, path in paths.items():
        if path:
            resolved = Path(path).resolve()
            if resolved.is_dir() or not resolved.parent.is_dir():
                raise ConfigError(f"{flag}: {path!r} is not a file in an existing directory")
            other = seen.setdefault(resolved, flag)
            if other != flag:
                raise ConfigError(f"{flag}: names the same file as {other}: {path!r}")


def _dump_samples(sc, config: RunConfig, path: str):
    lines = ["letter,index,f_value"]
    index = list(map(str, range(config.n_samples)))
    for letter in (0, 1):
        vals = per_sample_values(sc, letter, config.n_samples, config.seed)
        values = map(repr, vals.astype(float, copy=False).tolist())
        lines.extend(map(",".join, zip(repeat(str(letter)), index, values)))
    Path(path).write_text("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for the
    # CI gate here, so route errors through an exception instead
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eprsignal", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="config file path or bundled config name")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None, dest="n_samples")
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; runs are serial")
    parser.add_argument("--dump-samples", default=None,
                        help="simulate only: also write per-sample observable values (CSV)")
    parser.add_argument("--witnesses", default=None,
                        help="affinity, gleason and certify only: also write the "
                             "full witness table (JSON)")
    return parser


# the options that only some commands take, with the commands that take them
_COMMAND_FLAGS = (
    ("dump_samples", "--dump-samples", ("simulate",)),
    ("witnesses", "--witnesses", CERTIFIERS),
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for dest, flag, commands in _COMMAND_FLAGS:
            if getattr(args, dest) is not None and args.command not in commands:
                raise ConfigError(f"{flag}: not an option of command {args.command!r}")
        data = load_config(args.config)
        overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
        config = parse_config(data, overrides)
        return run(config, args.dump_samples)[0]
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
