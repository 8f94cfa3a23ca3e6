"""The import contract: a command loads only what it runs.

Package ``__init__``\\ s export their names lazily (PEP 562, via
:mod:`repro._lazy`), the experiment registry imports a module only when its
id is looked up, and SciPy and networkx load only inside the code that uses
them. These tests compare module *sets* in fresh interpreters, never
seconds: a cold process that starts loading networkx, SciPy or
``numpy.testing`` again fails here on any machine, however fast.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import EXPERIMENTS

#: Modules that only the graph extensions, the spectral helpers, the analytic
#: solver and E09–E11 need. ``numpy.testing`` (with ``unittest``) is pulled
#: in by SciPy's import chain.
HEAVY = ("networkx", "scipy", "numpy.testing")

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.dynamics",
    "repro.engine",
    "repro.netsize",
    "repro.obs",
    "repro.sensor",
    "repro.serve",
    "repro.store",
    "repro.sweeps",
    "repro.swarm",
    "repro.topology",
    "repro.utils",
    "repro.walks",
)


def _env() -> dict:
    source_root = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": source_root + (os.pathsep + path if path else "")}


def _loaded_modules(*args: str) -> set[str]:
    """Every module a fresh ``python -X importtime <args>`` process imports."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:") and "[us]" not in line
    }


def _python(code: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(), timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


class TestColdProcessesLoadNoHeavyModules:
    @pytest.mark.parametrize(
        "args",
        [
            ("-c", "import repro"),
            ("-c", "from repro.core.analytic import solve"),
            ("-c", "import repro.serve.api, repro.serve.jobs"),
            ("-m", "repro", "--help"),
            ("-m", "repro", "list"),
            ("-m", "repro", "run", "E01", "--quick"),
        ],
        ids=["import-repro", "analytic-solve", "serve-daemon", "cli-help", "cli-list", "cli-run-E01"],
    )
    def test_command_imports_none_of_the_heavy_modules(self, args):
        loaded = _loaded_modules(*args)
        assert "repro" in loaded
        assert sorted(loaded & set(HEAVY)) == []

    def test_heavy_modules_load_on_first_use(self):
        """The control: the graph topologies still bring networkx and SciPy in."""
        loaded = _loaded_modules("-c", "from repro import RegularExpander")
        assert {"networkx", "scipy"} <= loaded


class TestLazyExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_every_public_name_resolves_and_is_listed(self, package_name):
        package = importlib.import_module(package_name)
        listed = dir(package)
        for name in package.__all__:
            value = getattr(package, name)
            assert name in listed, name
            namespace: dict = {}
            exec(f"from {package_name} import {name}", namespace)
            assert namespace[name] is value, name
            if isinstance(value, type(repro)):
                assert value is sys.modules[value.__name__], name
            elif hasattr(value, "__qualname__") and hasattr(value, "__module__"):
                # The object its defining module holds, not a copy or a stale alias.
                defining = importlib.import_module(value.__module__)
                assert getattr(defining, value.__qualname__) is value, name

    def test_aliases_and_submodules(self):
        from repro.core import analytic, bounds

        assert repro.solve_analytic is analytic.solve
        assert repro.bounds is bounds is sys.modules["repro.core.bounds"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert not hasattr(importlib.import_module("repro.topology"), "no_such_name")
        with pytest.raises(ImportError):
            exec("from repro.core import no_such_name", {})

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)


class TestExperimentRegistry:
    def test_membership_length_and_iteration_import_no_experiment(self):
        output = _python(
            "import json, sys\n"
            "from repro.experiments import EXPERIMENTS\n"
            "facts = ['E01' in EXPERIMENTS, 'e01' in EXPERIMENTS, len(EXPERIMENTS),\n"
            "         list(EXPERIMENTS), sorted(EXPERIMENTS), list(EXPERIMENTS.keys())]\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.experiments.e'))\n"
            "print(json.dumps([facts, loaded]))\n"
        )
        (contains, lowercase, length, ids, ordered, keys), loaded = json.loads(output)
        assert (contains, lowercase, length) == (True, False, 24)
        assert ids == ordered == keys == [f"E{index:02d}" for index in range(1, 25)]
        assert loaded == []

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_lookup_returns_the_module_and_its_config_class(self, experiment_id):
        module, config_cls = EXPERIMENTS[experiment_id]
        assert module.__name__.startswith(f"repro.experiments.e{experiment_id[1:]}_")
        assert module is sys.modules[module.__name__]
        assert config_cls.__module__ == module.__name__
        assert getattr(module, config_cls.__name__) is config_cls
        assert EXPERIMENTS[experiment_id] == (module, config_cls)

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_summary_is_the_first_docstring_line(self, experiment_id):
        module, _ = EXPERIMENTS[experiment_id]
        assert EXPERIMENTS.summary(experiment_id) == module.__doc__.strip().splitlines()[0]

    def test_unknown_id_raises_key_error(self):
        assert "E99" not in EXPERIMENTS
        with pytest.raises(KeyError):
            EXPERIMENTS["E99"]
        assert EXPERIMENTS.get("E99") is None

    def test_cli_list_prints_every_summary(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{key}  {EXPERIMENTS.summary(key)}" for key in sorted(EXPERIMENTS)]
