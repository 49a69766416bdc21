import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from eprsignal.cli import (
    _INT_MINIMUMS,
    ConfigError,
    RunConfig,
    bundled_config_names,
    emit_plot_data,
    load_config,
    main,
    parse_config,
    run,
)


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
             "subspaces_per_dim": 1, "workers": 1, "resamples": 2, "seed": 0}


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
        "subspaces_per_dim": 3,
        "resamples": 6,
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
    # dim-2 dispatch produced a chord-scan certificate
    witnesses = json.loads((tmp_path / "w2.json").read_text())["witnesses"]
    assert witnesses[0]["type"] == "chord"


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
    cfg = parse_config(load_config("bell-power"),
                       {"command": "gap", "format": "csv"})
    with pytest.raises(ConfigError, match="format"):
        run(cfg)


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
    assert len(lines) == 1 + 4 * len(table["witnesses"])

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


def test_capacity_computes_the_exact_gap_once(monkeypatch, tmp_path):
    from eprsignal import cli, signaling

    calls = []
    exact_gap = signaling.exact_gap

    def counted(sc):
        calls.append(sc)
        return exact_gap(sc)

    monkeypatch.setattr(signaling, "exact_gap", counted)
    monkeypatch.setattr(cli, "exact_gap", counted)
    raw = {**load_config("bell-power"), "block": 10, "trials": 50}
    code, report = run(parse_config(raw, {"command": "capacity",
                                          "out": str(tmp_path / "r.json")}))
    assert code == 0 and report["result"]["trials"] == 50
    assert len(calls) == 1


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
    assert meta["report_version"] == 2 and "stream_version" not in meta
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
# configs, the CSV plot data of the certifier configs (as written when
# every witness was part of the JSON report; the CSV is built from the same
# table), and simulate's convergence CSV (as written one f-string per row)
_REPORT_SHA256 = {
    ("simulate", "bell-power", "csv"):
        "150f8a483af6042bf6d16d95da7b190ba2ca62d599b3abeecbb790536cc47f58",
    ("simulate", "bell-power", "json"):
        "227663896705ec9beea4f452e64638328a8b1f774f65c95ed3d83adb23fcee7c",
    ("simulate", "bell-quadratic", "json"):
        "b475c5b5d96dd244a4bed1c61aac739217b5d903f9a8318d655d2b892e612121",
    ("capacity", "bell-power", "json"):
        "2b389e07010fb5baaa73ef703b5dd545e7af7dcb43b8ec9cde1ab2f160ea5e17",
    ("capacity", "bell-quadratic", "json"):
        "47c5f681e416ef90ceebfbcf86896fec050136cdac3615884cef7d3b7ec9deed",
    ("gap", "bell-power", "json"):
        "6398f3216d964afa1b01289d56e7ea84ecd033735b7637809f6a499d75d6a793",
    ("gap", "bell-quadratic", "json"):
        "3bc7a4dc31451f00a071596adba21b2dbbcbcf34c28554c69f7a76d49f32bfb6",
    ("gleason", "d3-gleason-fail", "json"):
        "7dac0124c4185e917212b7ccb9881488473c778738a54c4427783e78af0abecf",
    ("gleason", "d3-gleason-pass", "json"):
        "3531e795425cfffbb58fa5a81802a6973d095245b054fec6fe7f2e8838db6d92",
    ("affinity", "power2-affinity", "json"):
        "d1fd6faa6a136ed195f0bbf27d4f53cb7d15ba7f7d62290e8f3e2443060fe4db",
    ("certify", "d3-gleason-fail", "json"):
        "0dafa032ec96a582e6457cd6fe93034901354810370a4fe20e5b93103ed1323f",
    ("certify", "d3-gleason-pass", "json"):
        "4f54ef5d4ca2261563673a54987005785ddb5688a7ef9affd81d70c0865d0f07",
    ("certify", "power2-affinity", "json"):
        "eeab133f06878590dbdae115cceffd48c7e4c22f4a0548301fa990d9bfbd6827",
    ("affinity", "power2-affinity", "csv"):
        "7a401a5339501e170665ffaaa08a0c18e89a20e0d60eb237a0776d02875da4fe",
    ("gleason", "d3-gleason-fail", "csv"):
        "74d2ce03eac03982c178df1e4a1ab430a2c9b686787ecb55c27f079f89e01b6b",
    ("gleason", "d3-gleason-pass", "csv"):
        "9fd321509d680b9470c309dc4544ef696186fa6b9781524b614a77f3fea00125",
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
    # counting quadratic at seed 0, as written before the subspace scan's
    # QRs were stacked
    config = tmp_path / "counting24.json"
    config.write_text(json.dumps(_counting_config(24, 0), sort_keys=True) + "\n")
    out, side = tmp_path / "report.json", tmp_path / "witnesses.json"
    assert main(["gleason", "--config", str(config), "--out", str(out),
                 "--witnesses", str(side)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9297d382565a778e5101ab0a520a24aba55dbcad082a9456078c25535833ec6d")
    assert hashlib.sha256(side.read_bytes()).hexdigest() == (
        "4238930e9d59a4f95fa2044bebcf51ee7d0a31ed6fa0c25ff5e1e61f5cab74f0")


def test_capacity_report_bytes_at_block_10(tmp_path):
    # at the library's block of 1000 every trial decodes, so the pinned
    # capacity report above does not see the trial draws; at block 10 about
    # one trial in twelve fails (exactly 176/2048), and which ones depends on
    # the stream layout (version 4: 8,192 trials per chunk)
    config = tmp_path / "capacity.json"
    raw = {**load_config("bell-power"), "command": "capacity", "block": 10, "trials": 20000}
    config.write_text(json.dumps(raw, sort_keys=True) + "\n")
    out = tmp_path / "report.json"
    assert main(["capacity", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["bit_error_rate"] == 0.08755
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "76747b64205f073219ecab871f98d8dceacc653c98ff87ea246d141b5d0a4c5c")


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
    # version 3); the chord scan keeps one generator per chunk of 256
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
        ("power2-affinity", {}, [(10, k) for k in range(4)]),
    ]
    for name, overrides, paths in runs:
        built.clear()
        run(parse_config(load_config(name), {**overrides, **out}))
        assert built == paths


def test_simulate_report_and_csv_bytes_at_1e7_samples(tmp_path):
    # SHA-256 of the 1e7-sample report (1,221 convergence rows, the
    # benchmark's simulate-bell scale), its convergence CSV and the
    # per-sample CSV at the bundled 1e5 samples, as written before row
    # tables were encoded column by column
    out, csv, dump = (tmp_path / n for n in ("report.json", "conv.csv", "dump.csv"))
    argv = ["simulate", "--config", "bell-power", "--samples", "10000000"]
    assert main([*argv, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["result"]["convergence"]) == 1221
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "5bebfe1d6e134cf549babd56b60094750d90c405e559184ce425c6bee1df718e")
    assert main([*argv, "--format", "csv", "--out", str(csv)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "b9f0f20703abd1112c2e53190b96cf64692587ebfed0cb9b0ac89dfe88c1b20c")
    assert main(["simulate", "--config", "bell-power", "--out", str(out),
                 "--dump-samples", str(dump)]) == 0
    assert len(dump.read_text().splitlines()) == 1 + 2 * 100000
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "5bfdc13294a0d625df7f0fb5af1901990c5cd1baab43075789e8b8c279049dbd")


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
    if commands is None or command in commands:
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
