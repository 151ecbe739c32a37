"""Closed-form collective-operation cost models.

These are the single source of truth for collective timing: the DES MPI
charges them after a rendezvous, and the model-fidelity application
evaluators call them directly at paper scale (up to 22,500 tasks) — both
for the XT machines (via :meth:`CollectiveCostModel.for_machine`) and for
the comparison platforms of Figures 15/18 (via :meth:`for_platform`).

Forms follow the standard algorithmic analyses (binomial trees for
latency-bound collectives, Rabenseifner's reduce-scatter/allgather for
large allreduce, pairwise exchange for alltoall) parameterized by a
per-message latency, a per-task bandwidth, and a local memory-copy rate.
On the XTs the latency is mode-aware: in VN mode every rank of a node
communicates during a collective, so the NIC-sharing surcharge and the
split injection bandwidth always apply; the *extra* interrupt-contention
term is scaled by ``VN_COLLECTIVE_CONTENTION`` — the paper notes Cray's
recent MPT work "eliminating much of the contention" for MPI_Allreduce,
so this sits well below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.machine.specs import GIGA

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.platforms import Platform
    from repro.network.model import NetworkModel

#: CAL: residual VN interrupt-contention during collectives (see module doc).
VN_COLLECTIVE_CONTENTION = 0.35

#: CAL: per-destination software overhead of pairwise alltoall, as a
#: fraction of the message latency (each of the p−1 posted send/recv pairs
#: costs CPU time even when payloads are tiny). This term is what makes
#: MPI_Alltoallv expensive at ~1000 tasks — the dominant SN-vs-VN
#: difference in CAM's physics load balancing (paper §6.1, Fig. 16).
ALLTOALL_MSG_OVERHEAD_FRACTION = 0.8


@dataclass(frozen=True)
class CollectiveCostModel:
    """Collective costs for a ``ntasks``-task job.

    :param latency_s: per-message latency inside a collective.
    :param bw_Bs: per-task large-message bandwidth, bytes/s.
    :param memcpy_Bs: local combine/copy bandwidth (read+write), bytes/s.
    :param bisection_Bs: job-partition bisection bandwidth (caps alltoall);
        ``None`` disables the cap (fat networks like the ES crossbar).
    """

    ntasks: int
    latency_s: float
    bw_Bs: float
    memcpy_Bs: float
    bisection_Bs: Optional[float] = None
    #: Latency used by MPI_Allreduce/Barrier: Cray's MPT recently optimized
    #: the VN-mode reduction path, "eliminating much of the contention
    #: between the processor cores" (paper §6.2) — so these collectives see
    #: almost none of the VN NIC-sharing surcharge. Defaults to latency_s.
    optimized_latency_s: Optional[float] = None
    #: Rounds of a binomial tree, ⌈log2 p⌉ (0 for one task); derived once
    #: per instance and not compared.
    _log2p: int = field(init=False, repr=False, compare=False)

    @property
    def reduction_latency_s(self) -> float:
        return (
            self.optimized_latency_s
            if self.optimized_latency_s is not None
            else self.latency_s
        )

    def __post_init__(self) -> None:
        if self.ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        if min(self.latency_s, self.bw_Bs, self.memcpy_Bs) < 0:
            raise ValueError("cost parameters must be non-negative")
        log2p = max(1, math.ceil(math.log2(self.ntasks))) if self.ntasks > 1 else 0
        object.__setattr__(self, "_log2p", log2p)

    # -- constructors ------------------------------------------------------
    @classmethod
    def for_machine(cls, net: "NetworkModel", ntasks: int) -> "CollectiveCostModel":
        """Bind to an XT machine+mode through its network model."""
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        m = net.machine
        job_nodes = -(-ntasks // m.tasks_per_node)
        part = net.partition(job_nodes)
        latency = net.base_latency_s(
            hops=part.hops,
            contended_fraction=VN_COLLECTIVE_CONTENTION,
            job_nodes=job_nodes,
        )
        mem = m.node.memory
        active = m.active_cores_per_node
        per_core = min(mem.single_core_bw_GBs, mem.achievable_bw_GBs / active)
        # Optimized reduction path: no interrupt contention, and only a
        # sliver (CAL 0.3) of the NIC-sharing surcharge survives.
        base = net.base_latency_s(hops=part.hops, contended_fraction=0.0,
                                  job_nodes=job_nodes)
        vn_add = net.nic.vn_latency_add_us * 1.0e-6 if net.is_vn else 0.0
        optimized = base - vn_add * 0.7
        return cls(
            ntasks=ntasks,
            latency_s=latency,
            bw_Bs=net.task_bandwidth_GBs() * GIGA,
            memcpy_Bs=per_core / 2.0 * GIGA,
            bisection_Bs=part.bisection_GBs * GIGA,
            optimized_latency_s=optimized,
        )

    @classmethod
    def for_platform(cls, platform: "Platform", ntasks: int) -> "CollectiveCostModel":
        """Bind to a comparison platform (Figures 15/18)."""
        return cls(
            ntasks=ntasks,
            latency_s=platform.mpi_latency_us * 1.0e-6,
            bw_Bs=platform.mpi_bw_GBs * GIGA,
            memcpy_Bs=2.0 * GIGA,
            bisection_Bs=None,
        )

    # -- helpers ---------------------------------------------------------------
    def _mem_copy_s(self, nbytes: float) -> float:
        """Local reduction / copy work at memory speed (read+write)."""
        return 2.0 * nbytes / self.memcpy_Bs

    # -- collectives --------------------------------------------------------
    def barrier_s(self) -> float:
        """Dissemination barrier: ⌈log2 p⌉ rounds of zero-byte messages."""
        return self._log2p * self.reduction_latency_s

    def bcast_s(self, nbytes: float) -> float:
        """Binomial tree for small payloads; pipelined for large ones."""
        self._check(nbytes)
        if self.ntasks == 1:
            return 0.0
        tree = self._log2p * (self.latency_s + nbytes / self.bw_Bs)
        pipelined = self._log2p * self.latency_s + 2.0 * nbytes / self.bw_Bs
        return min(tree, pipelined)

    def reduce_s(self, nbytes: float) -> float:
        """Binomial reduction: bcast-shaped communication + local combines."""
        self._check(nbytes)
        if self.ntasks == 1:
            return 0.0
        return self.bcast_s(nbytes) + self._log2p * self._mem_copy_s(nbytes)

    def allreduce_s(self, nbytes: float) -> float:
        """Recursive doubling (small) / Rabenseifner (large).

        The latency-bound small-message form — ``2⌈log2 p⌉ × L`` — is what
        makes POP's barotropic solver scale poorly (paper §6.2).
        """
        self._check(nbytes)
        if self.ntasks == 1:
            return 0.0
        lat = self.reduction_latency_s
        small = 2.0 * self._log2p * lat + self._log2p * (
            nbytes / self.bw_Bs + self._mem_copy_s(nbytes)
        )
        p = self.ntasks
        large = (
            2.0 * self._log2p * lat
            + 2.0 * nbytes * (p - 1) / p / self.bw_Bs
            + self._mem_copy_s(nbytes * (p - 1) / p)
        )
        return min(small, large)

    def gather_s(self, nbytes_per_rank: float) -> float:
        """Binomial gather of ``nbytes_per_rank`` from each task to the root."""
        self._check(nbytes_per_rank)
        if self.ntasks == 1:
            return 0.0
        p = self.ntasks
        return self._log2p * self.latency_s + (p - 1) * nbytes_per_rank / self.bw_Bs

    def scatter_s(self, nbytes_per_rank: float) -> float:
        """Binomial scatter (same cost shape as gather)."""
        return self.gather_s(nbytes_per_rank)

    def allgather_s(self, nbytes_per_rank: float) -> float:
        """Ring/recursive-doubling allgather."""
        self._check(nbytes_per_rank)
        if self.ntasks == 1:
            return 0.0
        p = self.ntasks
        return self._log2p * self.latency_s + (p - 1) * nbytes_per_rank / self.bw_Bs

    def alltoall_s(self, nbytes_per_pair: float) -> float:
        """Pairwise-exchange alltoall with a bisection-bandwidth cap.

        Injection term: each task sends (p−1) blocks at its NIC share.
        Bisection term: half the aggregate payload crosses the job
        partition's bisection — the constraint that keeps PTRANS flat from
        XT3 to XT4 (Fig. 10).
        """
        self._check(nbytes_per_pair)
        if self.ntasks == 1:
            return 0.0
        p = self.ntasks
        latency_term = (
            max(self._log2p, (p - 1) * ALLTOALL_MSG_OVERHEAD_FRACTION)
            * self.latency_s
        )
        injection = (p - 1) * nbytes_per_pair / self.bw_Bs
        transfer = injection
        if self.bisection_Bs:
            total_bytes = float(p) * p * nbytes_per_pair
            transfer = max(transfer, (total_bytes / 2.0) / self.bisection_Bs)
        return latency_term + transfer

    def reduce_scatter_s(self, nbytes_total: float) -> float:
        """Pairwise-exchange reduce-scatter of an ``nbytes_total`` vector
        (the first half of Rabenseifner's allreduce)."""
        self._check(nbytes_total)
        if self.ntasks == 1:
            return 0.0
        p = self.ntasks
        return (
            self._log2p * self.reduction_latency_s
            + nbytes_total * (p - 1) / p / self.bw_Bs
            + self._mem_copy_s(nbytes_total * (p - 1) / p)
        )

    def scan_s(self, nbytes: float) -> float:
        """Inclusive prefix reduction (binomial up/down sweeps)."""
        self._check(nbytes)
        if self.ntasks == 1:
            return 0.0
        return 2.0 * self._log2p * (
            self.reduction_latency_s + nbytes / self.bw_Bs
        ) + self._log2p * self._mem_copy_s(nbytes)

    def alltoallv_s(self, total_bytes_per_rank: float) -> float:
        """Irregular alltoall: cost of the heaviest rank's exchange."""
        self._check(total_bytes_per_rank)
        if self.ntasks == 1:
            return 0.0
        per_pair = total_bytes_per_rank / max(1, self.ntasks - 1)
        return self.alltoall_s(per_pair)

    @staticmethod
    def _check(nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
