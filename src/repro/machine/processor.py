"""Per-core kernel rate model for a machine + execution mode."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.configs import PROFILES
from repro.machine.memorymodel import MemoryModel
from repro.machine.modes import Mode
from repro.machine.specs import Machine, WorkloadProfile


@dataclass(frozen=True)
class CoreModel:
    """Resolves kernel rates for one core of ``machine`` under its mode.

    ``active_cores`` defaults to the machine's mode: SN runs one task (one
    busy core) per node, VN runs one per core. The HPCC "SP" measurements
    correspond to a single busy core even in VN mode; pass
    ``active_cores=1`` for those.
    """

    machine: Machine
    #: The socket's memory-controller model, built once per instance (not
    #: per rate lookup); not compared, so equality and hash stay those of
    #: ``machine``.
    memory: MemoryModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        node = self.machine.node
        object.__setattr__(self, "memory", MemoryModel(node.memory, node.cores))

    @property
    def default_active_cores(self) -> int:
        return self.machine.active_cores_per_node

    @property
    def peak_gflops(self) -> float:
        return self.machine.node.processor.peak_gflops_per_core

    # -- kernel rates -------------------------------------------------------
    def rate_gflops(
        self, profile: "WorkloadProfile | str", active_cores: int | None = None
    ) -> float:
        """Per-core GFLOP/s for a locality profile (by name or instance)."""
        if isinstance(profile, str):
            profile = PROFILES[profile]
        active = self.default_active_cores if active_cores is None else active_cores
        return self.memory.workload_rate_gflops(profile, self.peak_gflops, active)

    def time_s(
        self,
        flops: float,
        profile: "WorkloadProfile | str",
        active_cores: int | None = None,
    ) -> float:
        """Seconds for one core to retire ``flops`` of the given kernel."""
        return flops / (self.rate_gflops(profile, active_cores) * 1.0e9)

    def dgemm_gflops(self, active_cores: int | None = None) -> float:
        return self.rate_gflops("dgemm", active_cores)

    def fft_gflops(self, active_cores: int | None = None) -> float:
        return self.rate_gflops("fft", active_cores)

    def stream_triad_GBs(self, active_cores: int | None = None) -> float:
        active = self.default_active_cores if active_cores is None else active_cores
        return self.memory.stream_triad_GBs(active)

    def random_access_gups(self, active_cores: int | None = None) -> float:
        active = self.default_active_cores if active_cores is None else active_cores
        return self.memory.random_access_gups(active)
