"""Machine models: processors, memory and whole-system configs.

The public surface:

* :func:`~repro.machine.configs.xt3`, :func:`~repro.machine.configs.xt3_dc`,
  :func:`~repro.machine.configs.xt4` — the three ORNL systems of the paper's
  Table 1, as :class:`~repro.machine.specs.Machine` instances;
* :class:`~repro.machine.specs.Machine` — a system configuration bound to an
  execution :class:`~repro.machine.modes.Mode` (SN or VN);
* :class:`~repro.machine.memorymodel.MemoryModel` — shared-memory-controller
  contention model (STREAM / RandomAccess / roofline workload rates);
* :class:`~repro.machine.processor.CoreModel` — per-core kernel rate model;
* :mod:`~repro.machine.platforms` — analytic models of the comparison
  platforms (Cray X1E, Earth Simulator, IBM p690 / p575 / SP).
"""

from repro.machine.configs import COMPARISON_SYSTEMS, table1_rows, xt3, xt3_dc, xt4
from repro.machine.memorymodel import MemoryModel
from repro.machine.modes import Mode
from repro.machine.platforms import PLATFORMS, Platform
from repro.machine.processor import CoreModel
from repro.machine.specs import (
    Machine,
    MemorySpec,
    NICSpec,
    NodeSpec,
    ProcessorSpec,
    WorkloadProfile,
)

__all__ = [
    "COMPARISON_SYSTEMS",
    "CoreModel",
    "Machine",
    "MemoryModel",
    "MemorySpec",
    "Mode",
    "NICSpec",
    "NodeSpec",
    "PLATFORMS",
    "Platform",
    "ProcessorSpec",
    "WorkloadProfile",
    "table1_rows",
    "xt3",
    "xt3_dc",
    "xt4",
]
