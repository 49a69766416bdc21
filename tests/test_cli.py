import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eprsignal
from eprsignal.cli import (
    _INT_MINIMUMS,
    COMMANDS,
    ConfigError,
    RunConfig,
    bundled_config_names,
    emit_plot_data,
    execute,
    load_config,
    main,
    parse_config,
    run,
)
from eprsignal.serialize import observable_from_json


def test_bundled_library_is_complete():
    assert bundled_config_names() == [
        "bell-power",
        "bell-quadratic",
        "d3-gleason-fail",
        "d3-gleason-pass",
        "power2-affinity",
    ]


def test_every_bundled_config_parses_and_round_trips():
    for name in bundled_config_names():
        raw = load_config(name)
        cfg = parse_config(raw)
        normal = cfg.to_dict()
        again = parse_config(normal).to_dict()
        assert again == normal, name


def test_load_config_unknown_name():
    with pytest.raises(ConfigError):
        load_config("no-such-config")


def test_parse_config_field_errors():
    base = load_config("bell-power")
    with pytest.raises(ConfigError, match="command"):
        parse_config({**base, "command": "noop"})
    with pytest.raises(ConfigError, match="n_samples"):
        parse_config({**base, "n_samples": 0})
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config({**base, "tolerance": -1.0})
    with pytest.raises(ConfigError, match="expect"):
        parse_config({**base, "expect": "maybe"})
    with pytest.raises(ConfigError, match="scenario"):
        parse_config({"command": "gap"})
    with pytest.raises(ConfigError, match="observable"):
        parse_config({"command": "gleason"})


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    # a misspelt key must not fall back silently to the default it meant to set
    with pytest.raises(ConfigError, match="^config: unknown key 'n_sampels'$"):
        parse_config({**load_config("bell-power"), "n_sampels": 5})
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({**load_config("bell-power"), "command": "simulate",
                                "n_sampels": 5}))
    assert main(["simulate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: config: unknown key 'n_sampels'\n"
    assert captured.out == ""


def test_unknown_override_key_is_an_error():
    base = load_config("bell-power")
    with pytest.raises(ConfigError, match="^config: unknown key 'n_sampels'$"):
        parse_config(base, {"command": "simulate", "n_sampels": 5})
    # a None override is a flag that was not given, so it is left out
    assert parse_config(base, {"command": "simulate", "n_sampels": None}).n_samples == 100000


@pytest.mark.parametrize("command, name, key, value", [
    ("gleason", "d3-gleason-pass", "witnesses", 7),
    ("certify", "power2-affinity", "witnesses", True),
    ("gap", "bell-power", "out", ["a"]),
    ("simulate", "bell-power", "out", 1.5),
    # an empty path would send the report to stdout or drop the table
    ("gap", "bell-power", "out", ""),
    ("affinity", "power2-affinity", "witnesses", ""),
])
def test_output_paths_must_be_strings(command, name, key, value, tmp_path, capsys):
    config = {**load_config(name), key: value}
    if key == "witnesses":
        config["out"] = str(tmp_path / "report.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {key}: must be a path string, got {value!r}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


_MINIMUMS = {"n_samples": 1, "n_chords": 1, "block": 1, "trials": 1,
             "workers": 1, "seed": 0}


@pytest.mark.parametrize("field, value", [
    (field, value) for field, minimum in _MINIMUMS.items()
    for value in (minimum - 1, True, 2.5, "3")
])
def test_integer_fields_are_bounded(field, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**load_config("bell-power"), field: value}))
    assert main(["gap", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {field}: must be an integer >= {_MINIMUMS[field]}, got {value!r}\n"
    )
    assert captured.out == ""


def test_every_integer_field_has_a_bound():
    # a new int field of RunConfig must come with its least value; the
    # order is the order of the checks, so it picks the error reported
    assert list(_INT_MINIMUMS.items()) == list(_MINIMUMS.items())
    ints = [f.name for f in dataclasses.fields(RunConfig) if f.type in ("int", int)]
    assert sorted(_INT_MINIMUMS) == sorted(ints)


def test_defaults_are_pinned():
    scenario = load_config("bell-power")["scenario"]
    assert parse_config({"command": "gap", "scenario": scenario}).to_dict() == {
        "command": "gap",
        "scenario": scenario,
        "observable": None,
        "n_samples": 10000,
        "n_chords": 1000,
        "block": 1000,
        "trials": 200,
        "seed": 0,
        "tolerance": 1e-8,
        "expect": None,
        "out": None,
        "format": "json",
        "workers": 1,
        "witnesses": None,
    }


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    intro = "The top-level keys of a config are the fields of `RunConfig`:"
    listed = readme.split(intro, 1)[1].split("Any other key", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(RunConfig)]


def test_simulate_needs_two_samples_per_letter(capsys):
    assert main(["simulate", "--config", "bell-power", "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: n_samples: must be an integer >= 2, got 1\n"
    assert captured.out == ""
    base = load_config("bell-power")
    assert parse_config(base, {"command": "simulate", "n_samples": 2}).n_samples == 2
    for command in ("gap", "capacity"):
        assert parse_config(base, {"command": command, "n_samples": 1}).n_samples == 1


@pytest.mark.parametrize(
    "source, value",
    [(source, value) for source in ("flag", "file") for value in ("nan", "inf", "-inf", "0")]
    # a JSON true is an int to Python, and reads as 1.0 unless rejected
    + [("file", "true")],
)
@pytest.mark.parametrize("command, name", [("gap", "bell-power"),
                                           ("certify", "power2-affinity")])
def test_tolerance_must_be_finite_and_positive(command, name, source, value,
                                               tmp_path, capsys):
    argv = [command, "--config", name]
    if source == "flag":
        argv.append(f"--tolerance={value}")
    else:  # json.dumps writes NaN and Infinity, which json.loads reads back
        path = tmp_path / "config.json"
        tolerance = True if value == "true" else float(value)
        path.write_text(json.dumps({**load_config(name), "tolerance": tolerance}))
        argv[2] = str(path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tolerance: must be a finite number > 0")
    if value == "true":
        assert captured.err == "error: tolerance: must be a finite number > 0, got True\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "change",
    [{"k": 2.5}, {"k": "2"}, {"counting": "false"}, {"counting": 1}, None],
    ids=["k-float", "k-string", "counting-string", "counting-int", "list"],
)
@pytest.mark.parametrize("route", ["scenario", "observable"])
def test_observable_descriptor_is_validated(route, change, tmp_path, capsys):
    # k must be a JSON integer, counting true or false, and the descriptor an
    # object, under gap's scenario and as gleason's top-level observable
    if route == "scenario":
        config = load_config("bell-power")
        desc = config["scenario"]["observable"]
    else:
        config = load_config("d3-gleason-fail")
        desc = config["observable"]
    desc = [1, 2] if change is None else {**desc, **change}
    if route == "scenario":
        config = {**config, "scenario": {**config["scenario"], "observable": desc}}
    else:
        config = {**config, "observable": desc}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    command = "gap" if route == "scenario" else "gleason"
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {route}: ")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


@pytest.mark.parametrize("entry", [["1", 0], [True, 0]], ids=["string", "bool"])
@pytest.mark.parametrize("route", ["scenario", "observable"])
def test_matrix_entries_must_be_numbers(route, entry, tmp_path, capsys):
    # a complex entry with a string or bool part fails with the config path,
    # here the first of the scenario's alphas or of gleason's P
    if route == "scenario":
        config = load_config("bell-power")
        state = config["scenario"]["state"]
        state["alphas"] = [entry] + state["alphas"][1:]
    else:
        config = load_config("d3-gleason-fail")
        p = config["observable"]["P"]
        p[0] = [entry] + p[0][1:]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    command = "gap" if route == "scenario" else "gleason"
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {route}: a complex number must be")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


_BAD_ROWS = {
    "non-unit": [[1, 0], [1, 0]],
    "nan": [[float("nan"), 0], [1, 0]],
    "inf": [[float("inf"), 0], [0, 0]],
    "ragged": [[0, 0], [1, 0], [0, 0]],
    "not-a-row": 5,
}


@pytest.mark.parametrize("fault", list(_BAD_ROWS))
@pytest.mark.parametrize("field", ["alice_basis", "bob_states", "basis_a", "basis_a_prime"])
@pytest.mark.filterwarnings("error")
def test_state_rows_are_validated(field, fault, tmp_path, capsys):
    # a bad second row of any list of states is one error line, raised
    # before any arithmetic can warn, and nothing is written
    config = load_config("bell-power")
    scenario = config["scenario"]
    rows = scenario["state"][field] if field in scenario["state"] else scenario[field]
    rows[1] = _BAD_ROWS[fault]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["gap", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: scenario: ")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_gap_command_reports_bell_power_gap(tmp_path):
    out = tmp_path / "report.json"
    cfg = parse_config(load_config("bell-power"),
                       {"command": "gap", "out": str(out)})
    code, report = run(cfg)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["result"]["gap"] == pytest.approx(0.25, abs=1e-12)


def test_certify_dispatches_on_dimension(tmp_path):
    cfg = parse_config(load_config("d3-gleason-pass"),
                       {"command": "certify", "out": str(tmp_path / "c.json")})
    code, report = run(cfg)
    assert code == 0
    assert report["result"]["verdict"] == "quadratic-consistent"

    power_cfg = parse_config(
        {
            "command": "certify",
            "observable": load_config("bell-power")["scenario"]["observable"],
            "seed": 3,
        },
        {"out": str(tmp_path / "c2.json"), "witnesses": str(tmp_path / "w2.json")},
    )
    code, report = run(power_cfg)
    assert code == 0
    assert report["result"]["verdict"] == "non-quadratic"
    # dim-2 dispatch produced a residual-scan certificate
    witnesses = json.loads((tmp_path / "w2.json").read_text())["witnesses"]
    assert witnesses[0]["type"] == "ray"


def test_exit_two_when_signal_found_but_not_expected(tmp_path):
    raw = load_config("bell-power")
    raw["expect"] = "no-signal"
    cfg = parse_config(raw, {"command": "gap", "out": str(tmp_path / "r.json")})
    code, _ = run(cfg)
    assert code == 2


def test_quiet_scenario_with_no_signal_expectation_passes(tmp_path):
    cfg = parse_config(load_config("bell-quadratic"),
                       {"out": str(tmp_path / "r.json")})
    code, report = run(cfg)
    assert code == 0
    assert report["result"]["z"] < 5.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
@pytest.mark.parametrize("n", [10, 10**4, 10**5])
def test_a_rare_branch_of_a_quadratic_scenario_is_no_signal(n, tmp_path):
    # sqrt(1 - eps)|00> + sqrt(eps)|11>, eps = 1e-6, under the Z and X
    # letters and f = <psi|0><0|psi>: the exact gap is 0, but below ~1e7
    # samples the weight-1e-6 branch is never drawn, both sample variances
    # are 0, and the plug-in z of the 1e-6 mean difference is infinite
    raw = load_config("bell-quadratic")
    raw["scenario"]["state"]["alphas"] = [[(1 - 1e-6) ** 0.5, 0.0], [1e-3, 0.0]]
    cfg = parse_config({**raw, "seed": 1, "n_samples": n},
                       {"out": str(tmp_path / "r.json")})
    code, _ = run(cfg)
    assert code == 0


def test_reports_byte_identical_across_runs_and_workers(tmp_path):
    texts = []
    for workers in (1, 4, 1):
        out = tmp_path / f"r{len(texts)}.json"
        cfg = parse_config(
            load_config("bell-power"),
            {"n_samples": 20000, "workers": workers, "out": str(out)},
        )
        assert run(cfg)[0] == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_main_runs_and_reports_usage_errors(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["gap", "--config", "bell-power", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["command"] == "gap"
    assert main(["gap", "--config", "definitely-missing"]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_seed_override_changes_report(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    main(["simulate", "--config", "bell-power", "--samples", "5000",
          "--out", str(a)])
    main(["simulate", "--config", "bell-power", "--samples", "5000",
          "--seed", "9", "--out", str(b)])
    main(["simulate", "--config", "bell-power", "--samples", "5000",
          "--seed", "9", "--out", str(c)])
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == c.read_bytes()


def test_dump_samples_matches_report(tmp_path):
    out = tmp_path / "r.json"
    dump = tmp_path / "samples.csv"
    main(["simulate", "--config", "bell-power", "--samples", "4000",
          "--out", str(out), "--dump-samples", str(dump)])
    lines = dump.read_text().splitlines()
    assert lines[0] == "letter,index,f_value"
    rows = [line.split(",") for line in lines[1:]]
    vals0 = [float(r[2]) for r in rows if r[0] == "0"]
    assert len(vals0) == 4000
    report = json.loads(out.read_text())
    assert sum(vals0) / len(vals0) == pytest.approx(report["result"]["mc_fb"],
                                                    abs=1e-12)


@pytest.mark.parametrize("command, config, flag", [
    ("certify", "power2-affinity", "--witnesses"),
    ("simulate", "bell-power", "--dump-samples"),
])
def test_an_output_flag_may_not_name_the_report_file(command, config, flag, tmp_path,
                                                     monkeypatch, capsys):
    # the second write would replace the report; a relative and an absolute
    # path to one file collide too, and nothing is written
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", config, "--samples", "100",
                 "--out", "r.json", flag, str(tmp_path / "r.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "--out" in captured.err and flag in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert main([command, "--config", config, "--samples", "100",
                 "--out", "r.json", flag, "w"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["command"] == command


@pytest.mark.parametrize("fault", ["directory", "missing-parent"])
@pytest.mark.parametrize("command, config, flag", [
    ("simulate", "bell-power", "--out"),
    ("simulate", "bell-power", "--dump-samples"),
    ("certify", "power2-affinity", "--witnesses"),
])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(
        command, config, flag, fault, tmp_path, monkeypatch, capsys):
    # rejected before the command runs: no traceback, and no other output
    # (the report of --out) is written first
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    argv = [command, "--config", config, "--samples", "100",
            flag, "d" if fault == "directory" else "missing/x"]
    if flag != "--out":
        argv += ["--out", "r.json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: ") and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert list((tmp_path / "d").iterdir()) == []


def test_an_output_name_the_file_system_refuses_is_one_error_line(tmp_path, monkeypatch,
                                                                capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gap", "--config", "bell-power", "--out", "a" * 300]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a" * 300 in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_bytes(b'{"command": "gap", "seed": 1, "x": "\xff"}')
    out = tmp_path / "r.json"
    assert main(["gap", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: cannot read {str(config)!r} (")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [config]


def test_csv_format_emits_plot_data(tmp_path):
    out = tmp_path / "conv.csv"
    cfg = parse_config(
        load_config("bell-power"),
        {"n_samples": 20000, "format": "csv", "out": str(out)},
    )
    run(cfg)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,mc_gap,pooled_stderr"
    assert len(lines) > 1


def test_csv_format_rejected_for_gap():
    with pytest.raises(ConfigError, match="format"):
        cfg = parse_config(load_config("bell-power"),
                           {"command": "gap", "format": "csv"})
        run(cfg)


def test_csv_format_for_capacity_is_rejected_before_it_runs(monkeypatch, tmp_path, capsys):
    from eprsignal import cli

    with pytest.raises(ConfigError, match="format"):
        parse_config(load_config("bell-power"), {"command": "capacity", "format": "csv"})
    monkeypatch.setattr(cli, "channel_capacity", None)  # a run would fail here
    out = tmp_path / "c.csv"
    assert main(["capacity", "--config", "bell-power", "--format", "csv",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: format: no CSV plot data defined for command 'capacity'\n")
    assert not out.exists()


def test_emit_plot_data_kinds(tmp_path):
    sidecar = tmp_path / "w.json"
    cfg = parse_config(load_config("d3-gleason-fail"),
                       {"out": str(tmp_path / "g.json"), "witnesses": str(sidecar)})
    run(cfg)
    hist = emit_plot_data(json.loads(sidecar.read_text()), "violation-histogram")
    assert hist.splitlines()[0] == "index,violation"

    bloch_cfg = parse_config(
        {"command": "affinity",
         "observable": load_config("bell-power")["scenario"]["observable"],
         "n_chords": 50},
        {"out": str(tmp_path / "a.json"), "witnesses": str(sidecar)},
    )
    run(bloch_cfg)
    table = json.loads(sidecar.read_text())
    bloch = emit_plot_data(table, "bloch")
    lines = bloch.splitlines()
    assert lines[0] == "x,y,z,f_value,violation"
    assert len(lines) == 1 + len(table["witnesses"]) == 1 + 3 + 50 + 12 * 128

    assert emit_plot_data({"witnesses": []}, "bloch") == "x,y,z,f_value,violation\n"
    with pytest.raises(ValueError):
        emit_plot_data({"witnesses": []}, "convergence")
    with pytest.raises(ValueError):
        emit_plot_data({}, "nonsense")


@pytest.mark.parametrize("command, name", [
    ("gleason", "power2-affinity"),
    ("affinity", "d3-gleason-pass"),
])
def test_wrong_dimension_for_certifier_is_a_config_error(command, name, capsys):
    assert main([command, "--config", name]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: observable: ")


def _offset_quadratic_config(command: str, c: float) -> dict:
    # the no-signal Bell scenario with f = <psi|diag(1 + c, c)|psi>: both
    # letter means are c + 1/2, the exact gap is 0 up to rounding at scale c
    raw = load_config("bell-quadratic")
    raw["scenario"]["observable"]["F"] = [
        [[1.0 + c, 0.0], [0.0, 0.0]], [[0.0, 0.0], [c, 0.0]]
    ]
    return {**raw, "command": command, "expect": "no-signal",
            "block": 10, "trials": 50}


@pytest.mark.parametrize("command", ["gap", "capacity"])
def test_signal_gate_is_relative_to_the_letter_means(command, tmp_path):
    cfg = parse_config(_offset_quadratic_config(command, 1e8),
                       {"out": str(tmp_path / "r.json")})
    code, _ = run(cfg)
    assert code == 0
    # a real gap at the same scale still trips the gate
    raw = load_config("bell-power")
    raw["scenario"]["observable"]["P"] = [
        [[1e4, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]
    ]
    raw.update(command=command, expect="no-signal", block=10, trials=50)
    code, _ = run(parse_config(raw, {"out": str(tmp_path / "s.json")}))
    assert code == 2


@pytest.mark.parametrize("command", ["affinity", "certify"])
def test_certifiers_take_the_observable_from_a_scenario_config(command, tmp_path):
    out = tmp_path / "r.json"
    assert main([command, "--config", "bell-power", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["verdict"] == "non-quadratic"


def test_capacity_reads_one_built_scenario(monkeypatch, tmp_path):
    # the channel and the signal gate each take the exact gap, both from the
    # one Scenario, whose letter ensembles are built once
    from eprsignal import cli, signaling

    built, calls = [], []
    build, exact_gap = cli.scenario_from_json, signaling.exact_gap

    def counted(sc):
        calls.append(sc)
        return exact_gap(sc)

    monkeypatch.setattr(cli, "scenario_from_json",
                        lambda data: built.append(build(data)) or built[-1])
    monkeypatch.setattr(signaling, "exact_gap", counted)
    monkeypatch.setattr(cli, "exact_gap", counted)
    raw = {**load_config("bell-power"), "block": 10, "trials": 50}
    code, report = run(parse_config(raw, {"command": "capacity",
                                          "out": str(tmp_path / "r.json")}))
    assert code == 0 and report["result"]["trials"] == 50
    assert len(built) == 1 and len(calls) == 2
    assert all(sc is built[0] for sc in calls)


def test_dump_samples_builds_the_scenario_once(monkeypatch, tmp_path):
    from eprsignal import cli

    calls = []
    build = cli.scenario_from_json
    monkeypatch.setattr(cli, "scenario_from_json",
                        lambda data: calls.append(data) or build(data))
    assert main(["simulate", "--config", "bell-power", "--samples", "100",
                 "--out", str(tmp_path / "r.json"),
                 "--dump-samples", str(tmp_path / "s.csv")]) == 0
    assert len(calls) == 1
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 2 * 100


def test_report_meta_and_sidecar_do_not_depend_on_output_settings(tmp_path):
    reports, tables = set(), set()
    for i, workers in enumerate((1, 2, 3)):
        out, side = tmp_path / f"r{i}.json", tmp_path / f"sub{i}" / "w.json"
        side.parent.mkdir()
        assert main(["affinity", "--config", "power2-affinity", "--workers", str(workers),
                     "--out", str(out), "--witnesses", str(side)]) == 0
        reports.add(out.read_bytes())
        tables.add(side.read_bytes())
    assert len(reports) == len(tables) == 1
    meta = json.loads(reports.pop())["meta"]
    assert meta["report_version"] == 7 and "stream_version" not in meta
    assert meta["numpy_version"] == np.__version__
    from eprsignal import __version__

    assert meta["version"] == __version__
    expected = parse_config(load_config("power2-affinity")).to_dict()
    for key in ("out", "workers", "format", "witnesses"):
        del expected[key]
    assert meta["config"] == expected

    main(["simulate", "--config", "bell-power", "--samples", "100",
          "--out", str(tmp_path / "s.json")])
    meta = json.loads((tmp_path / "s.json").read_text())["meta"]
    assert meta["stream_version"] == 4 and meta["config"]["n_samples"] == 100


def test_witness_table_only_for_certifiers(capsys):
    with pytest.raises(ConfigError, match="witnesses"):
        parse_config(load_config("bell-power"), {"witnesses": "w.json"})
    assert main(["gap", "--config", "bell-power", "--witnesses", "w.json"]) == 1
    assert "--witnesses" in capsys.readouterr().err


# SHA-256 of the report bytes at the config seed: the JSON report of every
# bundled config under its own command and of certify on the observable
# configs (report version 7: simulate keeps log-spaced convergence rows,
# and every certifier writes ray-residual rows, refined around the worst),
# the CSV plot data of the certifier configs (as written when every
# witness was part of the JSON report; the CSV is built from the same
# table), and simulate's convergence CSV (as written one f-string per
# row).  Every report but the certifiers' differs from version 6 only in
# its meta block: the report_version and numpy_version lines, and no
# subspaces_per_dim or resamples key.  The certifier reports at d = 2 and 3
# moved once more within version 7, when each matrix got its own product
# in hilbert.expectations: their values column now equals f.values at the
# same rays bit for bit, where the product with [A | F] differed by an ulp
# in some rows; verdicts, worst checks and row counts did not move
_REPORT_SHA256 = {
    ("simulate", "bell-power", "csv"):
        "def0e0ba0f40884dda816c42dddb4e812c69405bf8371941697e949ded63ebb5",
    ("simulate", "bell-power", "json"):
        "7e8e0668f0a8f04878971d2912abb73b57ed1746dbcd82083ec655aab64081cc",
    ("simulate", "bell-quadratic", "json"):
        "e1f681ec14ee50b531b14e6267da8a773eb16430c7eeaf742c0aec6d083650d6",
    ("capacity", "bell-power", "json"):
        "6574ec87df957c4250b2cf8213942626a69d99dde81920d574e8d6f457eca4af",
    ("capacity", "bell-quadratic", "json"):
        "138f3a5043be808302e6a4a3aa5ab7f325b2f53ad4dc693d30de0b05038a8ba3",
    ("gap", "bell-power", "json"):
        "42e548195ed62871e06e931f50d4c3bc4abaef76196ae345d32b157a77dad0d5",
    ("gap", "bell-quadratic", "json"):
        "3c4738183ede505f4ad8e4f83bb1185011335cb895f1006d477c5551265f9676",
    ("gleason", "d3-gleason-fail", "json"):
        "950b4563bfd5334df0e871ccb37697cc9aae795f9455fe231304f4cd01cedac0",
    ("gleason", "d3-gleason-pass", "json"):
        "3753cda7bd1c64c997d30080b2c4bda56088d1eaaae2b3a05a08d42df740dcb4",
    ("affinity", "power2-affinity", "json"):
        "21c5e62244154dcc42008d323d7a3cf0b50257be639707a6c81cd534c46aa65c",
    ("certify", "d3-gleason-fail", "json"):
        "77561821290e77048714764ae42c36d8880884f8e946194b6463b833cb7871c7",
    ("certify", "d3-gleason-pass", "json"):
        "de592f5e40641b7f776d27b290e24c0e4d7d309aa5b5fbb504cb3e1624cf1657",
    ("certify", "power2-affinity", "json"):
        "708fa287418160a7a08fa36dbd1352d8bef2d46f0e8812a85e98bc0d64e9faa5",
    ("affinity", "power2-affinity", "csv"):
        "8800940da0858d924b7ebf1ef475a2a5449b80f27c8ad048041de88f3b239457",
    ("gleason", "d3-gleason-fail", "csv"):
        "535c1a13d7696000d24ffb495f24235711b6ebf7f37a4ca18b7896f587fd1e4c",
    ("gleason", "d3-gleason-pass", "csv"):
        "018b29558bf634d5899e70708eb31a5a75e9458743b126b47726f1d2ffb54fb5",
}


@pytest.mark.parametrize(
    "command, name, fmt",
    # the CSV cases keep the ids they had before the JSON cases joined them
    [pytest.param(*key, id="-".join(key if key[2] == "json" else key[:2]))
     for key in sorted(_REPORT_SHA256)],
)
def test_csv_plot_data_bytes_are_unchanged(command, name, fmt, tmp_path):
    out = tmp_path / "report"
    assert main([command, "--config", name, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _REPORT_SHA256[command, name, fmt]


@pytest.mark.parametrize("seed", [0, 11, 12])
def test_gleason_fail_semantics_are_pinned(seed, tmp_path):
    # what the d3-gleason-fail report decides, apart from its bytes: 6 fixed
    # rays, 1000 Haar rays and 1536 refined rays; the supremum of the
    # residual of (<psi|0><0|psi>)^2 in dimension 3 is 3/4, which the
    # refined rows come within 0.05 of, and the operator's lowest
    # eigenvalue is (1 - sqrt(2))/2
    out = tmp_path / "report.json"
    assert main(["gleason", "--config", "d3-gleason-fail", "--seed", str(seed),
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["verdict"] == "non-quadratic"
    assert result["worst_check"] == "residual"
    assert 0.7 <= result["worst_violation"] <= 0.75 + 1e-12
    assert result["checks"]["residual"]["count"] == result["witness_count"] == 2542
    assert result["checks"]["psd_deficit"]["worst"] == pytest.approx((2**0.5 - 1) / 2, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 11, 12])
def test_affinity_semantics_are_pinned(seed, tmp_path):
    # what the power2-affinity report decides, apart from its bytes: 3 fixed
    # rays, 1000 Haar rays and 1536 refined rays; the Fourier row
    # (e0 - e1)/sqrt(2) alone has f = 1/4 against <F> = 3/4, so the worst
    # residual is at least 1/2, and no ray exceeds 1/4 + sqrt(2)/4
    out = tmp_path / "report.json"
    assert main(["affinity", "--config", "power2-affinity", "--seed", str(seed),
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["verdict"] == "non-quadratic"
    assert result["worst_check"] == "residual"
    assert 0.5 <= result["worst_violation"] <= 0.25 + 2**0.5 / 4
    assert result["checks"]["residual"]["count"] == result["witness_count"] == 2539


def _counting_config(d: int, seed: int) -> dict:
    # gleason on F = U diag(linspace(0, 1, d)) U^dagger, U Haar from the seed:
    # the recipe of the benchmark's gleason-counting24 workload
    rng = np.random.default_rng([seed, d])
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    f = u @ np.diag(np.linspace(0.0, 1.0, d)) @ u.conj().T
    f = (f + f.conj().T) / 2.0
    pairs = [[[float(z.real), float(z.imag)] for z in row] for row in f]
    observable = {"kind": "quadratic", "counting": True, "F": pairs}
    return {"command": "gleason", "observable": observable, "seed": seed}


def test_d24_counting_report_and_witness_bytes_are_unchanged(tmp_path):
    # SHA-256 of the JSON report and the --witnesses table of a d = 24
    # counting quadratic at seed 0 (report version 7: 2,836 residual rows,
    # of which the last 1,536 are refined)
    config = tmp_path / "counting24.json"
    config.write_text(json.dumps(_counting_config(24, 0), sort_keys=True) + "\n")
    out, side = tmp_path / "report.json", tmp_path / "witnesses.json"
    assert main(["gleason", "--config", str(config), "--out", str(out),
                 "--witnesses", str(side)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "027b83e5f44d6e82884a9df1bbe71666a407ca9c0493c85e63d0744ef5885255")
    assert hashlib.sha256(side.read_bytes()).hexdigest() == (
        "42dfba1d9abfe5552bca5fb97fac56a99df95ea67f97853aa5d8a9d4931882c6")


def _json_keys(tree):
    # every key of a parsed JSON tree, at any depth
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield key
            yield from _json_keys(value)
    elif isinstance(tree, list):
        for value in tree:
            yield from _json_keys(value)


def test_subspace_rows_hold_no_basis(tmp_path):
    # the gleason rows, subspaces before the ray residual and rays since,
    # are named by their index in the witness table: no gleason or certify
    # report or table holds a basis, the report stays small at d = 24, and
    # the table has the report's witness_count rows
    config = tmp_path / "counting24.json"
    config.write_text(json.dumps(_counting_config(24, 3)))
    out, side = tmp_path / "report.json", tmp_path / "witnesses.json"
    for command in ("gleason", "certify"):
        for name in ("d3-gleason-fail", "d3-gleason-pass", str(config)):
            assert main([command, "--config", name, "--out", str(out),
                         "--witnesses", str(side)]) == 0
            report, table = (json.loads(path.read_text()) for path in (out, side))
            for tree in (report, table):
                assert "basis" not in set(_json_keys(tree)), name
            assert len(table["witnesses"]) == report["result"]["witness_count"], name
    assert out.stat().st_size <= 84 * 1024


def _row_semantics(cert) -> str:
    # SHA-256 of what the certifier decides, apart from the witness-table
    # layout: the operator (<c16), then the rows' rays (<c16) and their
    # values, expectations and residuals (<f8), column by column
    h = hashlib.sha256(np.ascontiguousarray(cert.operator, "<c16").tobytes())
    w = cert.witnesses
    h.update(np.ascontiguousarray(w.rays, "<c16").tobytes())
    for column in (w.values, w.expectation, w.residual):
        h.update(np.ascontiguousarray(column, "<f8").tobytes())
    return h.hexdigest()


# the d = 3 pins moved with the per-matrix products, as _REPORT_SHA256's did
_SUBSPACE_SEMANTICS = {
    "d3-gleason-fail": "e3b7cd1c349d9651be1ab6b553c8d351349783b5260eba0dfbfd0ea4b31b0107",
    "d3-gleason-pass": "e45cd51d8e698d6da16c917a62766da72492d5d260e90ce89b21c9e5bcaf977e",
    "counting24-seed0": "5e12509b477069ad8f79f39bac6b2a7d983c3cbffe07fd54d8297de0a646274c",
    "counting24-seed3": "88896ed732fb192293755f8431d9d06fdbe369ed72f3cf91faa92fe273432412",
}


@pytest.mark.parametrize("name", sorted(_SUBSPACE_SEMANTICS))
def test_subspace_rows_and_operator_are_pinned(name):
    # the rows and the operator of gleason and certify on the bundled
    # gleason configs and on the benchmark's d = 24 counting recipe; the
    # gleason rows were subspaces up to report version 6, and are the
    # residual's rays since
    if name.startswith("counting24"):
        raw = _counting_config(24, int(name.removeprefix("counting24-seed")))
    else:
        raw = load_config(name)
    for command in ("gleason", "certify"):
        _, _, cert, cmd = execute(parse_config({**raw, "command": command}))
        d = len(cert.operator)
        assert cmd == "gleason"
        assert len(cert.witnesses) == d * (d - 1) // 2 + d + 1000 + 12 * 128
        assert _row_semantics(cert) == _SUBSPACE_SEMANTICS[name], command


# the exit codes of the six commands, in COMMANDS order, on each bundled
# config at its own seed: 1 where the config lacks what the command needs
_EXIT_CODES = {
    "bell-power": [0, 0, 0, 0, 1, 0],
    "bell-quadratic": [0, 0, 0, 0, 1, 0],
    "d3-gleason-fail": [1, 1, 1, 1, 0, 0],
    "d3-gleason-pass": [1, 1, 1, 1, 0, 0],
    "power2-affinity": [1, 1, 1, 0, 1, 0],
}


def test_exit_codes_on_the_bundled_configs_are_pinned(tmp_path):
    out = ["--out", str(tmp_path / "r")]
    codes = {
        name: [main([command, "--config", name, *out]) for command in COMMANDS]
        for name in bundled_config_names()
    }
    assert codes == _EXIT_CODES
    # gleason's gate: 2 when a declared no-signal is contradicted, and the
    # d = 24 counting quadratic passes
    for raw, code in (({**load_config("d3-gleason-fail"), "expect": "no-signal"}, 2),
                      ({**load_config("d3-gleason-pass"), "expect": "signal"}, 0),
                      (_counting_config(24, 0), 0)):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["gleason", "--config", str(config), *out]) == code


def test_counting_observable_out_of_range_is_a_config_error(tmp_path, capsys):
    # a counting quadratic of F = diag(1.5, 0, ..., 0) at d = 24: f(e_0) =
    # 1.5, which a sample of 1000 Haar states does not reach
    pairs = [[[1.5 if i == j == 0 else 0.0, 0.0] for j in range(24)] for i in range(24)]
    observable = {"kind": "quadratic", "counting": True, "F": pairs}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "gleason", "observable": observable}))
    assert main(["gleason", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: observable: observable range [0.0, 1.5] leaves [0, 1]\n"
    assert captured.out == "" and not (tmp_path / "r").exists()


def test_matrix_counting_observables_build_without_drawing(monkeypatch):
    # a quadratic or power observable flagged counting has its range from its
    # spectrum, so building it draws nothing; a custom one still samples
    f24 = _counting_config(24, 0)["observable"]["F"]
    descriptors = [
        _counting_config(24, 0)["observable"],
        _counting_config(24, 3)["observable"],
        load_config("d3-gleason-fail")["observable"],
        {**load_config("d3-gleason-pass")["observable"], "counting": True},
        {"kind": "power", "P": f24, "k": 3, "counting": True},
    ]
    sampled = eprsignal.custom(lambda psi: abs(psi[0]) ** 2, dim=3)

    def no_draws(*args, **kwargs):
        raise AssertionError("an observable drew samples as it was built")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for desc in descriptors:
        assert observable_from_json(desc).counting, desc["kind"]
    with pytest.raises(AssertionError, match="drew samples"):
        dataclasses.replace(sampled, counting=True)


def test_capacity_report_bytes_at_block_10(tmp_path):
    # at the library's block of 1000 every trial decodes, so the pinned
    # capacity report above does not see the trial draws; at block 10 about
    # one trial in twelve fails (exactly 176/2048), and which ones depends on
    # the stream layout (version 4: 8,192 trials per chunk); bytes of report
    # version 7
    config = tmp_path / "capacity.json"
    raw = {**load_config("bell-power"), "command": "capacity", "block": 10, "trials": 20000}
    config.write_text(json.dumps(raw, sort_keys=True) + "\n")
    out = tmp_path / "report.json"
    assert main(["capacity", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["bit_error_rate"] == 0.08755
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7dda3d9a47115630cb723ba0836bf923b40a79fcf2a1cd80d502b2e1a48ba9be")


def test_certify_csv_plots_what_it_dispatched_to(tmp_path):
    # certify in dimension >= 3 runs gleason, so it plots gleason's
    # violation histogram rather than an empty sphere-point table
    paths = {}
    for command in ("certify", "gleason"):
        paths[command] = tmp_path / f"{command}.csv"
        assert main([command, "--config", "d3-gleason-fail", "--format", "csv",
                     "--out", str(paths[command])]) == 0
    text = paths["certify"].read_text()
    assert text.startswith("index,violation\n") and len(text.splitlines()) > 1
    assert paths["certify"].read_bytes() == paths["gleason"].read_bytes()


def test_channel_streams_are_one_generator_each(monkeypatch, tmp_path):
    # simulate and capacity draw each stream from one generator (stream
    # version 3); the residual scan keeps one generator per chunk of 256
    # Haar rays, and its refinement one
    from eprsignal import nosignal, signaling, streams

    built = []

    def counting(seed, *path):
        built.append(path)
        return streams.substream(seed, *path)

    for module in (signaling, nosignal):
        monkeypatch.setattr(module, "substream", counting)
    out = {"out": str(tmp_path / "r.json")}
    runs = [
        ("bell-power", {"n_samples": 100000}, [(0,), (1,)]),
        ("bell-power", {"command": "capacity"}, [(2,)]),
        ("power2-affinity", {}, [(30, k) for k in range(4)] + [(31,)]),
    ]
    for name, overrides, paths in runs:
        built.clear()
        run(parse_config(load_config(name), {**overrides, **out}))
        assert built == paths


def test_simulate_report_and_csv_bytes_at_1e7_samples(tmp_path):
    # SHA-256 of the 1e7-sample report at report version 7 (the benchmark's
    # simulate-bell scale; 12 convergence rows, after 1, 2, 4, ..., 1024 and
    # all 1,221 chunks), its convergence CSV, and the per-sample CSV at the
    # bundled 1e5 samples (as written before row tables were encoded column
    # by column)
    out, csv, dump = (tmp_path / n for n in ("report.json", "conv.csv", "dump.csv"))
    argv = ["simulate", "--config", "bell-power", "--samples", "10000000"]
    assert main([*argv, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["result"]["convergence"]) == 12
    assert out.stat().st_size < 4096
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6a033d3e7d5f41f4b08e0bf0c486190b8d68af012780798e9e8dc24c51f02f16")
    assert main([*argv, "--format", "csv", "--out", str(csv)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "07f7c24a8a73771f53b5e89b00cb43ec8a389ebb2021c5d9cd3b404071bee765")
    assert main(["simulate", "--config", "bell-power", "--out", str(out),
                 "--dump-samples", str(dump)]) == 0
    assert len(dump.read_text().splitlines()) == 1 + 2 * 100000
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "5bfdc13294a0d625df7f0fb5af1901990c5cd1baab43075789e8b8c279049dbd")


# What the 1e7-sample simulate reports at seed 0 say, apart from their bytes:
# the exact gap, the letter means and standard errors, z, and the convergence
# rows at n = 8192 * 2^j (j = 0..10) and at n = 1e7, as written when every
# 8,192-sample chunk had a row
_SIMULATE_1E7_SEED_0 = {
    "bell-power": (
        {
            "gap": 0.2499999999999999,
            "mc_fb": 0.499998,
            "mc_fbprime": 0.2500000000000001,
            "stderr_b": 0.00015811389091284882,
            "stderr_bprime": 0.0,
            "z": 1581.126101929886,
        },
        [
            (8192, 0.2569580078124999, 0.005524073972352128),
            (16384, 0.2537231445312499, 0.003906260914587348),
            (32768, 0.2514953613281249, 0.0027621656587526315),
            (65536, 0.2516937255859374, 0.0019531286953298637),
            (131072, 0.25176239013671864, 0.0013810646210853528),
            (262144, 0.25034332275390614, 0.0009765641324341657),
            (524288, 0.24986839294433583, 0.000690534600627242),
            (1048576, 0.2498025894165038, 0.0004882814447732335),
            (2097152, 0.2501277923583983, 0.0003452670540423019),
            (4194304, 0.2500779628753661, 0.00024414065113595934),
            (8388608, 0.24996685981750477, 0.00017263350141118384),
            (10000000, 0.2499979999999999, 0.00015811389091284882),
        ],
    ),
    "bell-quadratic": (
        {
            "gap": -1.1102230246251565e-16,
            "mc_fb": 0.499998,
            "mc_fbprime": 0.5000000000000001,
            "stderr_b": 0.00015811389091284882,
            "stderr_bprime": 0.0,
            "z": 0.012649110009033978,
        },
        [
            (8192, 0.006958007812499889, 0.005524073972352128),
            (16384, 0.003723144531249889, 0.003906260914587348),
            (32768, 0.001495361328124889, 0.0027621656587526315),
            (65536, 0.001693725585937389, 0.0019531286953298637),
            (131072, 0.001762390136718639, 0.0013810646210853528),
            (262144, 0.000343322753906139, 0.0009765641324341657),
            (524288, -0.00013160705566417352, 0.000690534600627242),
            (1048576, -0.00019741058349620477, 0.0004882814447732335),
            (2097152, 0.00012779235839832648, 0.0003452670540423019),
            (4194304, 7.796287536609992e-05, 0.00024414065113595934),
            (8388608, -3.314018249522821e-05, 0.00017263350141118384),
            (10000000, -2.0000000001130225e-06, 0.00015811389091284882),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_SIMULATE_1E7_SEED_0))
def test_simulate_semantics_are_pinned(name, tmp_path):
    out = tmp_path / "report.json"
    assert main(["simulate", "--config", name, "--samples", "10000000", "--seed", "0",
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    summary, rows = _SIMULATE_1E7_SEED_0[name]
    assert result["gap"] == summary["gap"]
    for key in ("mc_fb", "mc_fbprime", "stderr_b", "stderr_bprime", "z"):
        assert result[key] == pytest.approx(summary[key], rel=1e-12, abs=0), key
    kept = {row["n"]: (row["mc_gap"], row["pooled_stderr"]) for row in result["convergence"]}
    for n, gap, stderr in rows:
        assert kept[n] == pytest.approx((gap, stderr), rel=1e-12, abs=0), n



@pytest.mark.parametrize("command, name", [
    ("gap", "bell-power"),
    ("simulate", "bell-power"),
    ("capacity", "bell-power"),
    ("affinity", "power2-affinity"),
    ("gleason", "d3-gleason-fail"),
    ("certify", "d3-gleason-pass"),
])
def test_commands_do_not_import_numpy_ma(command, name, tmp_path):
    # numpy imports numpy.ma lazily, on the first call of np.unique, np.isin
    # and the like; that import costs 14-19 ms of a command's run
    code = ("import sys; from eprsignal.cli import main; main(sys.argv[1:]); "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(eprsignal.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, command, "--config", name, "--out", str(tmp_path / "r")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"

@pytest.mark.parametrize(
    "route, path, extra, message",
    [
        ("observable", (), {"countng": True}, "observable: unknown key 'countng'"),
        ("observable", (), {"k": 2}, "observable: unknown key 'k'"),
        ("scenario", ("observable",), {"countng": True},
         "scenario: observable: unknown key 'countng'"),
        ("scenario", (), {"basis_b": []}, "scenario: unknown key 'basis_b'"),
        ("scenario", ("state",), {"alpha": []}, "scenario: state: unknown key 'alpha'"),
    ],
    ids=["observable-typo", "quadratic-with-k", "scenario-observable", "scenario",
         "state"],
)
def test_unknown_nested_key_is_an_error(route, path, extra, message, tmp_path, capsys):
    # a misspelt optional key, such as counting, must not drop its setting
    # silently: gleason would then skip the psd_deficit check
    if route == "observable":
        config = load_config("d3-gleason-pass")
        command = "gleason"
    else:
        config = load_config("bell-power")
        command = "gap"
    obj = config[route]
    for key in path:
        obj = obj[key]
    obj.update(extra)
    file = tmp_path / "config.json"
    file.write_text(json.dumps(config))
    assert main([command, "--config", str(file)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def _parsed(monkeypatch, argv):
    # main's parse of argv, up to the run it hands the config to
    from eprsignal import cli

    seen = []

    def record(config, dump_samples=None):
        seen.append((config, dump_samples))
        return 0, {}

    monkeypatch.setattr(cli, "run", record)
    code = main(argv)
    return code, seen[0] if seen else None


# each flag: a value, the RunConfig field it sets ("dump": run's
# dump_samples argument), the parsed value, and the commands that take it
# (None: all six), as under the parent's one subparser per command
_FLAGS = {
    "--seed": ("3", "seed", 3, None),
    "--samples": ("5", "n_samples", 5, None),
    "--out": ("o.json", "out", "o.json", None),
    "--format": ("csv", "format", "csv", None),
    "--tolerance": ("0.5", "tolerance", 0.5, None),
    "--workers": ("2", "workers", 2, None),
    "--dump-samples": ("s.csv", "dump", "s.csv", ("simulate",)),
    "--witnesses": ("w.json", "witnesses", "w.json", ("affinity", "gleason", "certify")),
}


@pytest.mark.parametrize("flag", sorted(_FLAGS))
@pytest.mark.parametrize("command", ["gap", "simulate", "capacity", "affinity",
                                     "gleason", "certify"])
def test_each_command_takes_its_own_flags(command, flag, monkeypatch, capsys):
    value, field, parsed, commands = _FLAGS[flag]
    code, seen = _parsed(monkeypatch, [command, "--config", "bell-power", flag, value])
    captured = capsys.readouterr()
    if flag == "--format" and command in ("gap", "capacity"):
        # the parser takes the flag; the config has no CSV for these commands
        assert code == 1 and seen is None
        assert captured.err == (
            f"error: format: no CSV plot data defined for command {command!r}\n")
    elif commands is None or command in commands:
        assert code == 0 and captured.err == ""
        config, dump = seen
        assert config.command == command
        assert (dump if field == "dump" else getattr(config, field)) == parsed
    else:
        assert code == 1 and seen is None
        assert captured.err.startswith("error: ") and flag in captured.err
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [[], ["--config", "bell-power"],
                                  ["noop", "--config", "bell-power"],
                                  ["gap"], ["gap", "--config", "bell-power", "--nope", "1"]],
                         ids=["empty", "no-command", "unknown-command", "no-config",
                              "unknown-flag"])
def test_usage_errors_exit_one(argv, monkeypatch, capsys):
    code, seen = _parsed(monkeypatch, argv)
    captured = capsys.readouterr()
    assert code == 1 and seen is None
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("command", ["gap", "simulate", "capacity", "affinity",
                                     "gleason", "certify"])
def test_flag_abbreviations_span_every_flag(command, monkeypatch, capsys):
    # one parser matches a prefix against all its flags: "--w" could be
    # --workers or --witnesses on every command, while "--work" is --workers
    code, seen = _parsed(monkeypatch, [command, "--config", "bell-power", "--w", "2"])
    captured = capsys.readouterr()
    assert code == 1 and seen is None
    assert captured.err.startswith("error: ambiguous option: --w")
    code, seen = _parsed(monkeypatch, [command, "--config", "bell-power", "--work", "2"])
    assert code == 0 and seen[0].workers == 2


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for command in ("gap", "simulate", "capacity", "affinity", "gleason", "certify"):
        assert command in out
    assert "--dump-samples" in out and "--witnesses" in out


def test_main_builds_one_argument_parser(monkeypatch, tmp_path):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["gap", "--config", "bell-power", "--out", str(tmp_path / "r.json")]) == 0
    assert len(built) == 1
