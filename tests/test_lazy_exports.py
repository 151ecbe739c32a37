"""Lazy package exports resolve to the defining module's own objects.

``repro.apps``, its five application packages and ``repro.hpcc`` resolve
their ``__all__`` names on first access. Importing a submodule binds it
as an attribute of its package, so an export named like a submodule
would be shadowed by the module; importing every submodule first and
then resolving every export catches that.
"""

import importlib
import pkgutil
import types

import pytest

LAZY_PACKAGES = [
    "repro.apps",
    "repro.apps.aorsa",
    "repro.apps.cam",
    "repro.apps.namd",
    "repro.apps.pop",
    "repro.apps.s3d",
    "repro.hpcc",
]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_exports_survive_importing_every_submodule(name):
    pkg = importlib.import_module(name)
    for info in pkgutil.walk_packages(pkg.__path__, prefix=f"{name}."):
        importlib.import_module(info.name)
    listed = dir(pkg)
    for export in pkg.__all__:
        obj = getattr(pkg, export)
        assert not isinstance(obj, types.ModuleType), f"{name}.{export} is a module"
        home = getattr(obj, "__module__", None) or type(obj).__module__
        assert home.startswith("repro."), f"{name}.{export} defined in {home}"
        assert getattr(importlib.import_module(home), export) is obj
        assert export in listed, f"dir({name}) omits {export!r}"
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_export")
