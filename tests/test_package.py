import ast
import importlib
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
        "ChordColumns",
        "Ensemble",
        "EntangledState",
        "FunctionalObservable",
        "Scenario",
        "SignalReport",
        "SubspaceMeasureRecord",
        "affinity_scan",
        "basis_independence",
        "channel_capacity",
        "combine",
        "conditional_ensemble",
        "custom",
        "exact_gap",
        "gleason_certify",
        "haar_unitary",
        "monte_carlo_report",
        "polarization_reconstruct",
        "power",
        "quadratic",
        "rebase_alice",
        "subspace_measure",
    ]


def test_the_test_only_zoo_is_not_in_the_package():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("eprsignal.zoo")


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
