"""Closed-form SeaStar network performance model.

All end-to-end message costs are LogGP-flavoured::

    T(m) = L_sw + hops × L_hop + m / B_task

with mode-dependent parameters:

* ``L_sw`` — MPI software+NIC latency (XT3 ≈ 6 µs, XT4 ≈ 4.5 µs, Fig. 2);
  VN mode adds the NIC-sharing surcharge, plus a contention term that grows
  with configuration size toward the ~18 µs worst case of Fig. 2.
* ``B_task`` — per-task injection bandwidth: the HT/NIC injection rate
  derated by the MPI efficiency, split between the node's communicating
  tasks in VN mode, and never exceeding the sustained link rate.

Pattern-level helpers reproduce the HPCC network metrics (ping-pong
min/avg/max, natural ring, random ring) and expose the job-partition
bisection bandwidth used by PTRANS/alltoall models.

Every term that depends on where a job sits comes from one decision,
:meth:`NetworkModel.partition`: ``n`` nodes → the enclosing sub-torus →
its mean hop count, diameter and bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.machine.modes import Mode
from repro.machine.specs import MICRO, Machine, NICSpec
from repro.network.topology import Torus3D

#: CAL: simultaneous bidirectional exchange overhead on ring latencies.
RING_LATENCY_FACTOR = 1.3
#: CAL: fraction of ping-pong bandwidth a natural-ring exchange sustains
#: per task (simultaneous sends to both neighbours share the injection path).
NATURAL_RING_BW_FACTOR = 0.55
#: CAL: routing/contention efficiency of random traffic on the torus links.
RANDOM_RING_ROUTING_EFF = 0.40
#: CAL: fraction of raw bisection bandwidth realisable by all-to-all
#: traffic (scheduling, duplex interference, non-ideal placement).
BISECTION_EFFICIENCY = 0.35


@dataclass(frozen=True)
class JobPartition:
    """The sub-torus a job occupies, as the analytic terms read it."""

    torus: Torus3D
    #: Hops charged to a message between random distinct nodes of the job:
    #: the partition's mean, rounded, and at least one.
    hops: int
    #: Realisable bisection bandwidth of the partition (GB/s).
    bisection_GBs: float


@dataclass(frozen=True)
class NetworkModel:
    """Analytic interconnect model bound to a machine + mode.

    The torus and the machine terms below are read once per instance, not
    per message cost; they are not compared, so equality and hash stay
    those of ``machine``.
    """

    machine: Machine
    torus: Torus3D = field(init=False, repr=False, compare=False)
    nic: NICSpec = field(init=False, repr=False, compare=False)
    tasks_per_node: int = field(init=False, repr=False, compare=False)
    is_vn: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = self.machine
        object.__setattr__(self, "torus", Torus3D(m.torus_dims))
        object.__setattr__(self, "nic", m.node.nic)
        object.__setattr__(self, "tasks_per_node", m.tasks_per_node)
        object.__setattr__(self, "is_vn", m.mode is Mode.VN and m.node.cores > 1)

    def partition(self, job_nodes: int | None = None) -> JobPartition:
        """The partition a ``job_nodes``-node job occupies.

        ``None`` means the whole machine; other counts are clamped to
        1..num_nodes. This is the one place a job's sub-torus is chosen.
        """
        total = self.torus.num_nodes
        nodes = total if job_nodes is None else max(1, min(job_nodes, total))
        sub = Torus3D(self.torus.sub_torus_dims(nodes))
        return JobPartition(
            torus=sub,
            hops=max(1, round(sub.avg_hops_random_pair)),
            bisection_GBs=(
                sub.bisection_links()
                * self.nic.sustained_link_bw_GBs
                * BISECTION_EFFICIENCY
            ),
        )

    # ------------------------------------------------------------------ latency
    def _vn_contention_scale(self, job_nodes: int) -> float:
        """Growth of VN NIC-sharing contention with job size.

        Fig. 2's ~18 µs worst case is observed "for larger configurations";
        the term saturates at 1024-node jobs. The floor of 0.4 is the
        baseline interrupt-serialization cost two actively-messaging cores
        impose on each other even on a two-node job — calibrated so the
        §5.2 two-pair exchange latency exceeds twice the one-pair value.
        """
        if job_nodes < 2:
            return 0.0
        return max(0.4, min(1.0, math.log2(job_nodes) / 10.0))

    def base_latency_s(self, hops: int = 1, contended_fraction: float = 0.0,
                       job_nodes: int | None = None) -> float:
        """One-way zero-byte latency over ``hops`` router hops.

        :param contended_fraction: 0 for a quiet NIC, 1 for the worst-case
            VN measurement where the partner core's traffic serializes with
            ours (only meaningful in VN mode).
        """
        if hops < 0:
            raise ValueError("hops must be >= 0")
        if not 0.0 <= contended_fraction <= 1.0:
            raise ValueError("contended_fraction must be in [0, 1]")
        lat_us = self.nic.mpi_latency_us + hops * self.nic.hop_latency_us
        if self.is_vn:
            lat_us += self.nic.vn_latency_add_us
            if contended_fraction > 0.0:
                nodes = job_nodes if job_nodes is not None else self.torus.num_nodes
                lat_us += (
                    contended_fraction
                    * self.nic.vn_contention_max_add_us
                    * self._vn_contention_scale(nodes)
                )
        return lat_us * MICRO

    # --------------------------------------------------------------- bandwidth
    def task_bandwidth_GBs(self, sharing_tasks: int | None = None) -> float:
        """Large-message MPI bandwidth available to one task.

        :param sharing_tasks: tasks on the node simultaneously driving the
            NIC; defaults to the mode's task count (VN splits injection).
        """
        share = self.tasks_per_node if sharing_tasks is None else sharing_tasks
        if share < 1:
            raise ValueError("sharing_tasks must be >= 1")
        injection = self.nic.mpi_bw_GBs / share
        return min(injection, self.nic.sustained_link_bw_GBs)

    def pt2pt_time_s(
        self,
        nbytes: float,
        hops: int = 1,
        sharing_tasks: int | None = None,
        contended_fraction: float = 0.0,
        job_nodes: int | None = None,
    ) -> float:
        """End-to-end time for one ``nbytes`` message."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        latency = self.base_latency_s(hops, contended_fraction, job_nodes)
        bw = self.task_bandwidth_GBs(sharing_tasks) * 1.0e9
        return latency + nbytes / bw

    # --------------------------------------------------- HPCC network patterns
    def pingpong_latency_us(self, which: str = "min", job_nodes: int | None = None) -> float:
        """HPCC ping-pong latency over random task pairs (Fig. 2).

        ``min`` pairs are torus neighbours with an idle partner core;
        ``avg``/``max`` pairs sit at the mean/diameter distance of the job
        partition, and in VN mode see partial/full NIC-sharing contention.
        """
        part = self.partition(job_nodes)
        nodes = part.torus.num_nodes
        if which == "min":
            return self.base_latency_s(1, 0.0, nodes) / MICRO
        if which == "avg":
            return self.base_latency_s(part.hops, 0.5, nodes) / MICRO
        if which == "max":
            return self.base_latency_s(part.torus.diameter, 1.0, nodes) / MICRO
        raise ValueError(f"which must be min/avg/max, got {which!r}")

    def pingpong_bandwidth_GBs(self, which: str = "avg") -> float:
        """HPCC ping-pong bandwidth (Fig. 3); distance-insensitive for
        large messages, so min/avg/max differ only via VN contention."""
        if which not in ("min", "avg", "max"):
            raise ValueError(f"which must be min/avg/max, got {which!r}")
        bw = self.task_bandwidth_GBs()
        if self.is_vn and which == "min":
            # Occasionally the partner core is idle: full node bandwidth.
            bw = self.task_bandwidth_GBs(sharing_tasks=1)
        return bw

    def natural_ring_latency_us(self, job_nodes: int | None = None) -> float:
        """Naturally-ordered ring latency: neighbour exchange (Fig. 2)."""
        nodes = self.partition(job_nodes).torus.num_nodes
        return RING_LATENCY_FACTOR * self.base_latency_s(1, 0.7, nodes) / MICRO

    def random_ring_latency_us(self, job_nodes: int | None = None) -> float:
        """Randomly-ordered ring latency: non-local exchange (Fig. 2)."""
        part = self.partition(job_nodes)
        nodes = part.torus.num_nodes
        return RING_LATENCY_FACTOR * self.base_latency_s(part.hops, 1.0, nodes) / MICRO

    def natural_ring_bandwidth_GBs(self) -> float:
        """Per-task naturally-ordered ring bandwidth (Fig. 3)."""
        return NATURAL_RING_BW_FACTOR * self.task_bandwidth_GBs()

    def random_ring_bandwidth_GBs(self, job_nodes: int | None = None) -> float:
        """Per-task randomly-ordered ring bandwidth (Fig. 3).

        The injection-limited rate is additionally capped by the torus
        links: random traffic crosses ``avg_hops`` links each, sharing the
        job partition's directed links.
        """
        sub = self.partition(job_nodes).torus
        injection_limited = NATURAL_RING_BW_FACTOR * self.task_bandwidth_GBs()
        tasks = sub.num_nodes * self.tasks_per_node
        total_link_bw = (
            sub.num_directed_links
            * self.nic.sustained_link_bw_GBs
            * RANDOM_RING_ROUTING_EFF
        )
        link_limited = total_link_bw / (tasks * max(1.0, sub.avg_hops_random_pair))
        return min(injection_limited, link_limited)

    # ----------------------------------------------------------- intra-node
    def intranode_time_s(self, nbytes: float) -> float:
        """Intra-socket (core-to-core) message time: Catamount handles these
        as a memory copy through the shared controller (paper §2)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        from repro.network.simnet import INTRA_NODE_LATENCY_US

        copy_bw = self.machine.node.memory.achievable_bw_GBs / 2.0
        return INTRA_NODE_LATENCY_US * MICRO + nbytes / (copy_bw * 1.0e9)

    # ------------------------------------------------------------- bisection
    def bisection_bw_GBs(self, job_nodes: int | None = None) -> float:
        """Realisable bisection bandwidth of a job partition (GB/s)."""
        return self.partition(job_nodes).bisection_GBs
