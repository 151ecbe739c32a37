"""HPCC naturally-ordered and randomly-ordered ring benchmarks."""

from __future__ import annotations

from typing import Optional

from repro.machine.specs import Machine
from repro.mpi.job import MPIJob
from repro.network.model import NetworkModel


class RingBenchmark:
    """Ring exchange metrics (Figures 2 and 3).

    The natural ring is the idealized nearest-neighbour pattern; the random
    ring permutes ranks, standing in for non-local communication.
    """

    def __init__(self, machine: Machine, job_nodes: Optional[int] = None) -> None:
        self.machine = machine
        self.job_nodes = job_nodes
        #: Built once per instance.
        self.model = NetworkModel(machine)

    # -- modelled metrics ---------------------------------------------------
    def natural_latency_us(self) -> float:
        return self.model.natural_ring_latency_us(self.job_nodes)

    def random_latency_us(self) -> float:
        return self.model.random_ring_latency_us(self.job_nodes)

    def natural_bandwidth_GBs(self) -> float:
        return self.model.natural_ring_bandwidth_GBs()

    def random_bandwidth_GBs(self) -> float:
        return self.model.random_ring_bandwidth_GBs(self.job_nodes)

    # -- discrete-event validation ----------------------------------------------
    def run_des_natural(self, ntasks: int = 8, nbytes: int = 1024) -> float:
        """DES ring exchange among contiguously placed ranks.

        Every rank simultaneously exchanges with both neighbours; returns
        the elapsed time in microseconds (one iteration).
        """
        import numpy as np

        if ntasks < 2:
            raise ValueError("need at least 2 tasks for a ring")

        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            payload = np.zeros(max(1, nbytes // 8))
            r1 = comm.isend(payload, dest=right, tag=0)
            r2 = comm.isend(payload, dest=left, tag=1)
            yield from comm.recv(source=left, tag=0)
            yield from comm.recv(source=right, tag=1)
            yield r1.event
            yield r2.event
            return comm.wtime()

        result = MPIJob(self.machine, ntasks).run(main)
        return result.elapsed_s * 1.0e6

    def run_des_random(
        self, ntasks: int = 8, nbytes: int = 1024, seed: int = 0
    ) -> float:
        """DES ring over a random rank permutation (non-local pattern)."""
        import numpy as np

        if ntasks < 2:
            raise ValueError("need at least 2 tasks for a ring")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(ntasks)
        pos_of = np.empty(ntasks, dtype=int)
        for pos, rank in enumerate(perm):
            pos_of[rank] = pos

        def main(comm):
            pos = pos_of[comm.rank]
            right = int(perm[(pos + 1) % comm.size])
            left = int(perm[(pos - 1) % comm.size])
            payload = np.zeros(max(1, nbytes // 8))
            r1 = comm.isend(payload, dest=right, tag=0)
            r2 = comm.isend(payload, dest=left, tag=1)
            yield from comm.recv(source=left, tag=0)
            yield from comm.recv(source=right, tag=1)
            yield r1.event
            yield r2.event
            return comm.wtime()

        result = MPIJob(self.machine, ntasks).run(main)
        return result.elapsed_s * 1.0e6
