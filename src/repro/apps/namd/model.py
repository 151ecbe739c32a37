"""NAMD performance model (Figures 20–21).

Time per MD step on ``p`` tasks::

    t(p) = F_system / (p · rate)      — cutoff + PME force work
         + t_serial                   — non-parallelized bookkeeping
         + R0 · log2(p) · L_eff       — message-driven critical path

The third term models Charm++'s fine-grained message-driven execution:
the critical path grows with the depth of the priority-message tree, and
its cost is the effective small-message latency — which is why VN mode's
extra latency shows up "for simulation runs with a large number of MPI
tasks" (Fig. 21) while the compute-bound bulk keeps the XT4's overall
gain at "an order of 5%" over the XT3 (Fig. 20).

The 1M-atom system stops scaling near 8,192 cores: its PME FFT grid runs
out of pencils; the model exposes that as ``max_useful_tasks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.processor import CoreModel
from repro.machine.specs import Machine, WorkloadProfile
from repro.network.model import NetworkModel

#: CAL: force-field flops per atom per step (cutoff pairs + PME share).
FLOPS_PER_ATOM_STEP = 42_000.0
#: CAL: per-step serial bookkeeping (integration, patch management).
SERIAL_SECONDS_PER_STEP = 5.0e-4
#: CAL: critical-path message rounds per log2(p) of the Charm++ tree.
MSG_ROUNDS_PER_LOG2P = 20.0

#: CAL: MD kernels are compute-dominated with a modest streaming component.
NAMD_PROFILE = WorkloadProfile("namd", bytes_per_flop=0.3, compute_efficiency=0.25)


@dataclass(frozen=True)
class NAMDSystem:
    """A benchmark molecular system."""

    name: str
    natoms: int
    pme_grid: int  # PME FFT grid extent per dimension

    @property
    def pme_pencils(self) -> int:
        """1D-decomposed FFT pencils: the PME parallelism ceiling."""
        return self.pme_grid * self.pme_grid


#: The paper's two petascale systems (§6.3): ~1M and ~3M atoms.
NAMD_1M = NAMDSystem(name="1M", natoms=1_000_000, pme_grid=128)
NAMD_3M = NAMDSystem(name="3M", natoms=3_000_000, pme_grid=192)


class NAMDModel:
    """NAMD on ``ntasks`` tasks of an XT machine.

    The core model and the critical-path message latency are built once
    per instance.
    """

    def __init__(
        self, machine: Machine, ntasks: int, system: NAMDSystem = NAMD_1M
    ) -> None:
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        self.machine = machine
        self.ntasks = ntasks
        self.system = system
        self.core = CoreModel(machine)
        net = NetworkModel(machine)
        nodes = -(-ntasks // machine.tasks_per_node)
        vn = machine.tasks_per_node > 1
        self._latency_s = net.base_latency_s(
            hops=net.partition(nodes).hops,
            contended_fraction=0.5 if vn else 0.0,
            job_nodes=nodes,
        )

    @property
    def max_useful_tasks(self) -> int:
        """Beyond this, added tasks idle during PME (the 1M system's
        scaling restriction at ~8k cores — paper §6.3)."""
        return self.system.pme_pencils // 2

    def seconds_per_step(self) -> float:
        p_effective = min(self.ntasks, self.max_useful_tasks)
        rate = self.core.rate_gflops(NAMD_PROFILE) * 1.0e9
        compute = self.system.natoms * FLOPS_PER_ATOM_STEP / (p_effective * rate)
        rounds = MSG_ROUNDS_PER_LOG2P * max(1.0, math.log2(self.ntasks))
        comm = rounds * self._latency_s
        return compute + SERIAL_SECONDS_PER_STEP + comm

    def ms_per_step(self) -> float:
        """Milliseconds per MD step (Figs 20-21 report seconds/step)."""
        return self.seconds_per_step() * 1.0e3
