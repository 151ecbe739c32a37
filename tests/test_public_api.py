"""Public-API integrity: exports resolve, and every module is documented."""

import importlib
import pathlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.apps",
    "repro.core",
    "repro.hpcc",
    "repro.kernels",
    "repro.lustre",
    "repro.machine",
    "repro.mpi",
    "repro.network",
    "repro.obs",
    "repro.runner",
    "repro.simengine",
]


def _all_modules():
    root = pathlib.Path(repro.__file__).parent
    for info in pkgutil.walk_packages([str(root)], prefix="repro."):
        yield info.name


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_exports_resolve(pkg):
    module = importlib.import_module(pkg)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{pkg}.__all__ lists missing {name!r}"


def test_every_module_imports_and_is_documented():
    missing_docs = []
    for name in _all_modules():
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            missing_docs.append(name)
    assert not missing_docs, f"undocumented modules: {missing_docs}"


def test_every_public_class_and_function_is_documented():
    undocumented = []
    for pkg in PACKAGES:
        module = importlib.import_module(pkg)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if callable(obj) and not (getattr(obj, "__doc__", "") or "").strip():
                undocumented.append(f"{pkg}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"
