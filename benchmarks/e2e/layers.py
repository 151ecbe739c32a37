"""Charge profiled host time to the program's layers.

A layer is a set of source files under ``src/repro``, named after its
module (``LAYER_RULES``). Every function a cProfile run saw is charged to
exactly one layer:

* a function defined in a ``repro`` file goes to that file's layer;
* a function in ``site-packages`` (numpy, scipy) goes to ``thirdparty``;
* a function in the benchmark's own files goes to ``harness``;
* a C builtin or standard-library function is charged, call site by call
  site (the pstats caller splits), to the layer of the function that
  called it when that caller belongs to one of the layers above; what is
  left stays in ``stdlib``.

So the layers' ``self_s`` values partition the profile's total self time,
and a numpy call made from a kernel costs the ``kernels`` layer.

Standard library only: the harness process never imports ``repro``.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

#: (path relative to ``src/repro``, layer). A rule ending in ``/`` is a
#: directory prefix, any other is one file; the longest matching rule wins.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("simengine/", "simengine"),
    ("mpi/", "mpi"),
    ("mpi/costmodels.py", "mpi.costmodels"),
    ("network/", "network.model"),
    ("network/simnet.py", "network.simnet"),
    ("network/topology.py", "network.topology"),
    ("network/mapping.py", "network.topology"),
    ("machine/", "machine"),
    ("apps/", "apps"),
    ("kernels/", "kernels"),
    ("hpcc/", "hpcc"),
    ("lustre/", "lustre"),
    ("faults/", "faults"),
    ("runner/", "runner"),
    ("core/", "core"),
    ("__init__.py", "core"),
    ("__main__.py", "core"),
    ("version.py", "core"),
    ("experiments/", "experiments"),
    ("obs/", "tooling"),
    ("prof/", "tooling"),
    ("simrace/", "tooling"),
    ("campaign/", "tooling"),
    ("lint/", "tooling"),
)

REPRO_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_RULES))
LAYERS: Tuple[str, ...] = REPRO_LAYERS + ("harness", "thirdparty", "stdlib")

#: pstats function key: (filename, first line, function name).
FuncKey = Tuple[str, int, str]


def repro_layer(relpath: str) -> Optional[str]:
    """Layer of a file given by its path relative to ``src/repro``."""
    best: Tuple[int, Optional[str]] = (-1, None)
    for rule, layer in LAYER_RULES:
        matches = relpath.startswith(rule) if rule.endswith("/") else relpath == rule
        if matches and len(rule) > best[0]:
            best = (len(rule), layer)
    return best[1]


def classifier(repro_root: pathlib.Path, harness_root: pathlib.Path) -> Callable[[str], Optional[str]]:
    """``filename -> layer``, or ``None`` for builtins and the standard library."""
    repro_prefix = f"{repro_root.resolve()}/"
    harness_prefix = f"{harness_root.resolve()}/"
    memo: Dict[str, Optional[str]] = {}

    def classify(filename: str) -> Optional[str]:
        if filename not in memo:
            if filename.startswith(repro_prefix):
                # A file added after the layer table was written is
                # counted, not dropped; test_e2e flags it.
                layer = repro_layer(filename[len(repro_prefix):]) or "core"
            elif filename.startswith(harness_prefix):
                layer = "harness"
            elif "/site-packages/" in filename or "/dist-packages/" in filename:
                layer = "thirdparty"
            else:
                layer = None
            memo[filename] = layer
        return memo[filename]

    return classify


def attribute(
    stats: Mapping[FuncKey, tuple], classify: Callable[[str], Optional[str]]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer ``(self seconds, calls)`` from a pstats ``stats`` dict.

    ``stats`` maps a function to ``(primitive calls, calls, tottime,
    cumtime, callers)``, where ``callers`` maps each calling function to
    ``(calls, primitive calls, tottime, cumtime)`` of the calls it made.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for (filename, _, _), (_, ncalls, tottime, _, callers) in stats.items():
        layer = classify(filename)
        if layer is None:
            for caller, (caller_calls, _, caller_tt, _) in callers.items():
                owner = classify(caller[0])
                if owner is not None:
                    self_s[owner] += caller_tt
                    calls[owner] += caller_calls
                    tottime -= caller_tt
                    ncalls -= caller_calls
            layer = "stdlib"
        self_s[layer] += tottime
        calls[layer] += ncalls
    return self_s, calls


def function_calls(stats: Mapping[FuncKey, tuple], file_suffix: str, name: str) -> int:
    """Calls of the function ``name`` defined in a file ending in ``file_suffix``."""
    return sum(
        value[1]
        for (filename, _, func), value in stats.items()
        if func == name and filename.endswith(file_suffix)
    )


def parse_importtime(lines: Iterable[str]) -> Dict[str, float]:
    """Seconds of import self time per top-level package, from the
    ``-X importtime`` lines on stderr, plus ``total`` over all of them."""
    totals: Dict[str, float] = {"total": 0.0}
    for line in lines:
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        self_us = self_us.strip()
        if not self_us.isdigit():
            continue  # the column header
        top = name.strip().split(".")[0]
        seconds = int(self_us) * 1e-6
        totals[top] = totals.get(top, 0.0) + seconds
        totals["total"] += seconds
    return totals
