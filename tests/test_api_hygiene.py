"""Public-API hygiene: exports resolve, carry docs, and stay stable."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.analysis",
    "repro.clustering",
    "repro.counters",
    "repro.extrapolation",
    "repro.fitting",
    "repro.folding",
    "repro.machine",
    "repro.observability",
    "repro.parallel",
    "repro.phases",
    "repro.resilience",
    "repro.runtime",
    "repro.signal",
    "repro.source",
    "repro.stream",
    "repro.trace",
    "repro.util",
    "repro.viz",
    "repro.workload",
]


class TestTopLevelApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_exports_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if name.startswith("__") or not (
                inspect.isclass(obj) or inspect.isfunction(obj)
            ):
                continue
            assert obj.__doc__, f"{name} lacks a docstring"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestSubpackages:
    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_importable_with_docstring(self, package_name):
        module = importlib.import_module(package_name)
        assert module.__doc__ and len(module.__doc__) > 40

    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_declared_all_resolves(self, package_name):
        module = importlib.import_module(package_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package_name}.{name}"

    def test_every_module_has_docstring(self):
        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not module.__doc__:
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_dunder_main_is_import_safe(self):
        # importing must NOT run the CLI (pkgutil walks do import it)
        importlib.import_module("repro.__main__")


class TestPublicClassesDocumented:
    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_public_callables_documented(self, package_name):
        module = importlib.import_module(package_name)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if inspect.isfunction(attr) and not attr.__doc__:
                        undocumented.append(f"{name}.{attr_name}")
        assert not undocumented, f"undocumented methods: {undocumented}"


class TestImportCost:
    def test_cli_import_skips_scipy_and_http_server(self):
        """Every ``repro`` command imports ``repro.cli`` before it reads a
        byte: scipy (≈0.5 s and a second BLAS) and ``http.server`` stay
        out until something really needs them."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import json, sys, repro.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.') or m == 'http.server')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out) == []
