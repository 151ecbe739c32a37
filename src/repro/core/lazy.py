"""Lazy package exports (PEP 562).

A package whose ``__init__`` re-exports names from its submodules can
defer importing them until first access::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.apps.cam.model": ("CAMModel", "best_configuration"),
    })

``import repro.apps`` then loads no submodule; ``repro.apps.CAMModel``
(or ``from repro.apps import CAMModel``) imports the defining module
once and caches the object on the package. Keeping the analytic
performance models off the numeric mini-apps' import path keeps numpy
off it too.

An exported name must not equal a submodule's name: importing that
submodule would bind the module over the export.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps each defining module to the names it exports.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
