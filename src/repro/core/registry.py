"""Experiment registry: maps paper artifact ids to their drivers.

:data:`MANIFEST` declares every experiment statically as ``(exp_id,
driver module, title)``. Listing, validating and titling experiments
reads only the manifest, so ``repro list`` and a fully cached
``repro all`` import no driver and no model. :func:`get_experiment`
imports one driver's module on first use; the module's ``@register``
decorator then records the zero-argument callable returning its
:class:`~repro.core.experiment.ExperimentResult`.

A test checks that the manifest equals what importing every driver
registers, and that each title equals the title of its driver's result.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional

from repro.core.experiment import ExperimentResult
from repro.core.validate import ShapeCheck

Driver = Callable[[], ExperimentResult]

#: ``(exp_id, driver module, title)`` of every experiment, sorted by id.
MANIFEST = (
    ("ext_balance", "repro.experiments.ext_balance",
     "Extension: system balance across XT generations"),
    ("ext_multicore", "repro.experiments.ext_multicore",
     "Extension: socket speedup vs active cores (quad-core projection)"),
    ("ext_resilience", "repro.experiments.ext_resilience",
     "Extension: checkpoint interval vs Daly optimum under node crashes"),
    ("fig01", "repro.experiments.fig01_lustre",
     "Lustre filesystem architecture (simulated)"),
    ("fig02", "repro.experiments.fig02_latency",
     "Network latency"),
    ("fig03", "repro.experiments.fig03_bandwidth",
     "Network bandwidth"),
    ("fig04", "repro.experiments.fig04_fft",
     "SP/EP Fast Fourier Transform (FFT)"),
    ("fig05", "repro.experiments.fig05_dgemm",
     "SP/EP Matrix Multiply (DGEMM)"),
    ("fig06", "repro.experiments.fig06_ra",
     "SP/EP Random Access (RA)"),
    ("fig07", "repro.experiments.fig07_stream",
     "SP/EP Memory Bandwidth (Streams)"),
    ("fig08", "repro.experiments.fig08_hpl",
     "Global High Performance LINPACK (HPL)"),
    ("fig09", "repro.experiments.fig09_mpifft",
     "Global Fast Fourier Transform (MPI-FFT)"),
    ("fig10", "repro.experiments.fig10_ptrans",
     "Global Matrix Transpose (PTRANS)"),
    ("fig11", "repro.experiments.fig11_mpira",
     "Global Random Access (MPI-RA)"),
    ("fig12_13", "repro.experiments.fig12_13_bidirectional",
     "Bidirectional MPI bandwidth"),
    ("fig14", "repro.experiments.fig14_cam_xt",
     "CAM throughput on XT4 vs XT3 (D-grid benchmark)"),
    ("fig15", "repro.experiments.fig15_cam_platforms",
     "CAM throughput on XT4 relative to previous results"),
    ("fig16", "repro.experiments.fig16_cam_phases",
     "CAM performance by computational phase"),
    ("fig17", "repro.experiments.fig17_pop_xt",
     "POP throughput on XT4 vs XT3 (0.1-degree benchmark)"),
    ("fig18", "repro.experiments.fig18_pop_platforms",
     "POP throughput on XT4 relative to previous results"),
    ("fig19", "repro.experiments.fig19_pop_phases",
     "POP performance by computational phase"),
    ("fig20", "repro.experiments.fig20_namd_xt",
     "NAMD performance on XT4 vs XT3"),
    ("fig21", "repro.experiments.fig21_namd_modes",
     "NAMD performance impact of SN vs VN"),
    ("fig22", "repro.experiments.fig22_s3d",
     "S3D parallel performance (weak scaling, 50^3 points/task)"),
    ("fig23", "repro.experiments.fig23_aorsa",
     "AORSA parallel performance"),
    ("table1", "repro.experiments.table1",
     "Comparison of XT3, XT3 dual-core, and XT4 systems at ORNL"),
)

_MODULES: Dict[str, str] = {exp_id: module for exp_id, module, _ in MANIFEST}
_TITLES: Dict[str, str] = {exp_id: title for exp_id, _, title in MANIFEST}
_REGISTRY: Dict[str, Driver] = {}


class UnknownExperimentError(KeyError):
    """Lookup of an experiment id that is not in the manifest.

    A ``KeyError`` subclass so existing ``except KeyError`` call sites
    keep working; carries the known ids for a helpful CLI message.
    """

    def __init__(self, exp_id: str, known: List[str]) -> None:
        super().__init__(
            f"unknown experiment {exp_id!r}; known: {known}"
        )
        self.exp_id = exp_id
        self.known = known

    def __str__(self) -> str:
        return f"unknown experiment {self.exp_id!r}; known: {self.known}"


def register(exp_id: str) -> Callable[[Driver], Driver]:
    """Decorator: ``@register("fig08")`` on the driver of a manifest entry.

    The driver must live in the module :data:`MANIFEST` names for
    ``exp_id``, and each id registers once.
    """

    def deco(fn: Driver) -> Driver:
        if _MODULES.get(exp_id) != fn.__module__:
            raise ValueError(
                f"{fn.__module__} registers {exp_id!r}, but MANIFEST "
                f"declares it in {_MODULES.get(exp_id)!r}"
            )
        if exp_id in _REGISTRY:
            raise ValueError(f"experiment {exp_id!r} registered twice")
        _REGISTRY[exp_id] = fn
        return fn

    return deco


def driver_module(exp_id: str) -> str:
    """Dotted module name of ``exp_id``'s driver, from the manifest."""
    try:
        return _MODULES[exp_id]
    except KeyError:
        raise UnknownExperimentError(exp_id, all_experiments()) from None


def get_experiment(exp_id: str) -> Driver:
    """The driver of ``exp_id``, importing its module on first use."""
    if exp_id not in _REGISTRY:
        importlib.import_module(driver_module(exp_id))
    return _REGISTRY[exp_id]


def check_shape(exp_id: str, result: ExperimentResult) -> ShapeCheck:
    """Run ``exp_id``'s ``shape_checks`` on ``result``."""
    return importlib.import_module(driver_module(exp_id)).shape_checks(result)


def experiment_title(exp_id: str) -> str:
    """The title of ``exp_id`` — without importing its driver."""
    driver_module(exp_id)  # raises for an unknown id
    return _TITLES[exp_id]


def experiment_titles() -> Dict[str, str]:
    """``{exp_id: title}`` for every experiment (sorted)."""
    return {exp_id: _TITLES[exp_id] for exp_id in all_experiments()}


def all_experiments() -> List[str]:
    """Sorted ids of every experiment."""
    return sorted(_MODULES)


def resolve_ids(requested: Optional[List[str]] = None) -> List[str]:
    """Validate ``requested`` ids against the manifest, in sorted order.

    ``None`` (or an empty list) means "everything". Unknown ids raise
    :class:`UnknownExperimentError` listing the known ids.
    """
    known = all_experiments()
    if not requested:
        return known
    for exp_id in requested:
        if exp_id not in _MODULES:
            raise UnknownExperimentError(exp_id, known)
    # Sorted order, independent of how the user listed them, so a run's
    # outcomes and outputs come out in one order.
    want = set(requested)
    return [exp_id for exp_id in known if exp_id in want]
