"""Hardware specification dataclasses.

Published constants (clock rates, DDR peak bandwidths, SeaStar injection
bandwidths) come straight from the paper's §2 and Table 1. A small number
of *calibrated* efficiency constants (DGEMM efficiency, STREAM efficiency,
MPI software latency, …) are set so the simulated micro-benchmarks land on
the paper's measured values; each is documented where defined in
:mod:`repro.machine.configs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.machine.modes import Mode, parse_mode

GIGA = 1.0e9
MICRO = 1.0e-6


@dataclass(frozen=True)
class ProcessorSpec:
    """A CPU socket.

    :param flops_per_cycle: double-precision flops per cycle per core
        (2 for the AMD K8 Opteron: one add + one multiply pipe).
    """

    name: str
    clock_ghz: float
    cores_per_socket: int
    flops_per_cycle: float = 2.0
    l2_cache_mb: float = 1.0

    @property
    def peak_gflops_per_core(self) -> float:
        """Theoretical double-precision peak per core in GFLOP/s."""
        return self.clock_ghz * self.flops_per_cycle

    @property
    def peak_gflops_per_socket(self) -> float:
        return self.peak_gflops_per_core * self.cores_per_socket


@dataclass(frozen=True)
class MemorySpec:
    """A socket's memory subsystem (controller is on-die, one per socket).

    :param peak_bw_GBs: interface peak (e.g. DDR-400 = 6.4, DDR2-667 = 10.6).
    :param stream_efficiency: fraction of peak a STREAM-like access pattern
        sustains at the socket (calibrated).
    :param single_core_bw_fraction: fraction of the *achievable* socket
        bandwidth one core can draw by itself; the paper observes a single
        Opteron core "can essentially saturate the off-socket memory
        bandwidth", so this is close to 1.
    :param random_update_rate_gups: socket-wide sustainable random-update
        throughput for HPCC RandomAccess (calibrated; a function of memory
        latency and outstanding-miss concurrency on the real machine).
    """

    name: str
    peak_bw_GBs: float
    latency_ns: float
    stream_efficiency: float
    single_core_bw_fraction: float
    random_update_rate_gups: float

    @property
    def achievable_bw_GBs(self) -> float:
        """Socket-level bandwidth a streaming workload can sustain."""
        return self.peak_bw_GBs * self.stream_efficiency

    @property
    def single_core_bw_GBs(self) -> float:
        """Bandwidth available to a single active core."""
        return self.achievable_bw_GBs * self.single_core_bw_fraction


@dataclass(frozen=True)
class NICSpec:
    """A SeaStar-family network interface + router.

    :param injection_bw_GBs: node-to-network injection bandwidth
        (SeaStar 2.2, SeaStar2 4.0 — paper §2).
    :param sustained_link_bw_GBs: sustained per-direction router link
        bandwidth (SeaStar ~2.0, SeaStar2 ~3.0; the paper quotes 4 → 6 GB/s
        *bidirectional* sustained).
    :param peak_link_bw_GBs: peak bidirectional link bandwidth (7.6 both).
    :param mpi_latency_us: zero-byte one-way MPI latency in SN mode
        (calibrated: XT3 ≈ 6 µs, XT4 ≈ 4.5 µs — paper Fig. 2).
    :param mpi_bw_efficiency: fraction of injection bandwidth MPI ping-pong
        achieves for large messages (calibrated ≈ 0.52: 1.15/2.2 on XT3 and
        2.1/4.0 on XT4).
    :param vn_latency_add_us: extra latency when the node runs VN mode and
        the second core's traffic must be proxied through the NIC-owning
        core (paper §2, Fig. 2).
    :param vn_contention_max_add_us: additional worst-case VN latency at
        large configurations (Fig. 2 shows ~18 µs worst case on XT4-VN).
    :param hop_latency_us: per-router-hop latency contribution.
    """

    name: str
    injection_bw_GBs: float
    sustained_link_bw_GBs: float
    peak_link_bw_GBs: float
    mpi_latency_us: float
    mpi_bw_efficiency: float
    vn_latency_add_us: float
    vn_contention_max_add_us: float
    hop_latency_us: float = 0.05

    @property
    def mpi_bw_GBs(self) -> float:
        """Large-message unidirectional MPI bandwidth of one node (SN)."""
        return self.injection_bw_GBs * self.mpi_bw_efficiency


@dataclass(frozen=True)
class WorkloadProfile:
    """Locality signature of a computational kernel (roofline inputs).

    :param bytes_per_flop: off-socket memory traffic per flop; near zero for
        high-temporal-locality kernels (DGEMM), large for streaming or
        transform kernels.
    :param compute_efficiency: fraction of core peak when compute bound.
    """

    name: str
    bytes_per_flop: float
    compute_efficiency: float

    def __post_init__(self) -> None:
        if self.bytes_per_flop < 0:
            raise ValueError("bytes_per_flop must be >= 0")
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute_efficiency must be in (0, 1]")


@dataclass(frozen=True)
class NodeSpec:
    """One compute node: a socket, its memory, and its NIC."""

    processor: ProcessorSpec
    memory: MemorySpec
    nic: NICSpec
    memory_capacity_gb_per_core: float = 2.0

    @property
    def cores(self) -> int:
        return self.processor.cores_per_socket

    @property
    def memory_capacity_gb(self) -> float:
        return self.memory_capacity_gb_per_core * self.cores


@dataclass(frozen=True)
class Machine:
    """A complete system configuration bound to an execution mode.

    ``torus_dims`` describes the SeaStar 3D-torus extents; the total node
    count is their product (service nodes are not modelled).
    """

    name: str
    node: NodeSpec
    torus_dims: Tuple[int, int, int]
    mode: Mode = Mode.SN
    commissioned: str = ""
    notes: str = ""

    def __post_init__(self) -> None:
        if any(d < 1 for d in self.torus_dims):
            raise ValueError(f"invalid torus dims {self.torus_dims}")

    # -- sizes -------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        x, y, z = self.torus_dims
        return x * y * z

    @property
    def num_cores(self) -> int:
        return self.num_nodes * self.node.cores

    @property
    def tasks_per_node(self) -> int:
        """MPI tasks placed per node under the bound mode."""
        return 1 if self.mode is Mode.SN else self.node.cores

    @property
    def max_tasks(self) -> int:
        return self.num_nodes * self.tasks_per_node

    @property
    def active_cores_per_node(self) -> int:
        """Cores doing work per node (SN idles the second core)."""
        return self.tasks_per_node

    # -- derived rates -------------------------------------------------------
    @property
    def peak_gflops(self) -> float:
        return self.num_cores * self.node.processor.peak_gflops_per_core

    def with_mode(self, mode: "Mode | str") -> "Machine":
        """A copy of this machine bound to another execution mode."""
        return replace(self, mode=parse_mode(mode))

    def nodes_for_tasks(self, ntasks: int) -> int:
        """Compute nodes consumed by an ``ntasks``-task job in this mode."""
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        if ntasks > self.max_tasks:
            raise ValueError(
                f"{ntasks} tasks exceed {self.name}/{self.mode} capacity "
                f"{self.max_tasks}"
            )
        per = self.tasks_per_node
        return -(-ntasks // per)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}-{self.mode}"
