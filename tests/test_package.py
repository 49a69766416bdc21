import ast
import dataclasses
import importlib
import re
import types
from pathlib import Path

import pytest

import eprsignal


def test_all_names_exactly_the_public_package_namespace():
    public = {
        name for name, value in vars(eprsignal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(eprsignal.__all__) == sorted(public)
    assert len(set(eprsignal.__all__)) == len(eprsignal.__all__)
    namespace: dict = {}
    exec("from eprsignal import *", namespace)
    for name in eprsignal.__all__:
        assert namespace[name] is getattr(eprsignal, name)


def test_all_is_the_api_the_commands_and_the_bench_use():
    assert sorted(eprsignal.__all__) == [
        "Certificate",
        "ChannelReport",
        "Ensemble",
        "EntangledState",
        "FunctionalObservable",
        "Scenario",
        "SignalReport",
        "certify",
        "channel_capacity",
        "combine",
        "conditional_ensemble",
        "custom",
        "exact_gap",
        "haar_unitary",
        "monte_carlo_report",
        "polarization_reconstruct",
        "power",
        "quadratic",
        "rebase_alice",
    ]


def test_the_test_only_zoo_is_not_in_the_package():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("eprsignal.zoo")


def test_every_public_class_and_every_dataclass_has_its_own_docstring():
    # a dataclass without one gets a generated signature string instead,
    # built with inspect.signature on every import
    src = Path(eprsignal.__file__).parent
    public = {name for name in eprsignal.__all__ if isinstance(getattr(eprsignal, name), type)}
    defined, missing = set(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            defined.add(node.name)
            dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            if (node.name in public or dataclass) and not ast.get_docstring(node):
                missing.append(f"{path.stem}.{node.name}")
    assert public <= defined
    assert missing == []


# (module, name) imported but not used in the module.  bench/selftest.py:97
# reads the Haar sampler as ``nosignal.haar_unitary`` to check that the
# tracer restores the module's global.
_UNUSED_IMPORTS_ALLOWED = {("nosignal", "haar_unitary")}


def test_every_imported_name_is_used_in_its_module():
    src = Path(eprsignal.__file__).parent
    unused = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":  # re-exports only
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add(alias.asname or alias.name.split(".")[0])
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == _UNUSED_IMPORTS_ALLOWED


# top-level functions and classes that nothing in src/ refers to, yet stay
_UNREFERENCED_ALLOWED = {
    # no command writes a scenario yet; a report that records its scenario
    # (ROADMAP item 2) is its caller
    ("serialize", "scenario_to_json"),
    # the names bench/workloads.py calls the certifier by; ROADMAP item 7
    # deletes them once item 8 has the bench call certify itself
    ("nosignal", "affinity_scan"),
    ("nosignal", "gleason_certify"),
}

# the field that holds the name a node refers to
_NAME_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def test_every_top_level_function_and_class_is_referenced():
    # a definition is referenced when its name appears in src/ as a name, an
    # attribute or an imported name outside its own definition, or it is in
    # __all__
    src = Path(eprsignal.__file__).parent
    defined, referenced = set(), set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, own))
            for node in ast.walk(top):
                field = _NAME_FIELDS.get(type(node))
                if field and getattr(node, field) != own:
                    referenced.add(getattr(node, field))
    unreferenced = {
        (module, name) for module, name in defined
        if name not in referenced and name not in eprsignal.__all__
    }
    assert unreferenced == _UNREFERENCED_ALLOWED


# stream tags that recorded seeds use or used, besides the _PATH_* constants:
# the channel draws letter b from (seed, b), and the tags 10 (the chord
# scan), 11 (the affine scan), 20 (the subspace scan) and 21 (the trace
# fit's own subspaces) are retired.  Reusing one would change what a
# recorded seed replays.
_LETTER_TAGS = {0, 1}
_RETIRED_TAGS = {10, 11, 20, 21}


def test_stream_path_tags_are_distinct_and_never_reuse_a_retired_tag():
    src = Path(eprsignal.__file__).parent
    tags, first_args = {}, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                name = getattr(node.targets[0], "id", "")
                if name.startswith("_PATH_"):
                    tags[f"{path.stem}.{name}"] = ast.literal_eval(node.value)
        first_args += [
            (path.stem, node.args[1]) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "substream"
        ]
    assert {"nosignal._PATH_RAYS", "nosignal._PATH_REFINE", "signaling._PATH_CHANNEL"} <= set(tags)
    values = list(tags.values())
    assert len(set(values)) == len(values)
    assert not set(values) & (_LETTER_TAGS | _RETIRED_TAGS)
    # every stream's first path element is a _PATH_* constant of its module,
    # or the letter of a channel stream
    assert first_args
    for module, arg in first_args:
        assert isinstance(arg, ast.Name), (module, ast.dump(arg))
        assert f"{module}.{arg.id}" in tags or (module, arg.id) == ("signaling", "letter")


def test_readme_names_the_current_report_version():
    # README's provenance paragraph opens its version history with the
    # report_version that reports carry: "`report_version` (N: ..."
    from eprsignal.cli import REPORT_VERSION

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert re.findall(r"`report_version` \((\d+):", readme) == [str(REPORT_VERSION)]


def test_every_config_key_is_read_or_only_sets_the_output():
    # a RunConfig field that no command reads would be accepted and recorded
    # in meta, yet change nothing: each field is read as config.<field> by
    # execute, run or a helper they call for it, or is an output setting
    from eprsignal import cli

    readers = ("execute", "run", "_build_scenario", "_build_observable", "_dump_samples")
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {
        node.attr
        for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in readers
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "config"
    }
    for field in dataclasses.fields(cli.RunConfig):
        assert field.name in read or field.name in cli._OUTPUT_FIELDS, field.name
