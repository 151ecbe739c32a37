"""HPCC ping-pong latency and bandwidth (Figures 2 and 3)."""

from __future__ import annotations

from typing import Optional

from repro.machine.specs import Machine
from repro.mpi.job import MPIJob
from repro.network.model import NetworkModel


class PingPong:
    """Point-to-point latency/bandwidth between random task pairs.

    ``job_nodes`` sets the configuration size context (VN NIC-sharing
    contention grows with it — Fig. 2's "larger configurations").
    """

    def __init__(self, machine: Machine, job_nodes: Optional[int] = None) -> None:
        self.machine = machine
        self.job_nodes = job_nodes
        #: Built once per instance.
        self.model = NetworkModel(machine)

    def latency_us(self, which: str = "min") -> float:
        """Modelled ping-pong latency (min/avg/max over pairs)."""
        return self.model.pingpong_latency_us(which, job_nodes=self.job_nodes)

    def bandwidth_GBs(self, which: str = "avg") -> float:
        """Modelled large-message ping-pong bandwidth."""
        return self.model.pingpong_bandwidth_GBs(which)

    # -- discrete-event validation --------------------------------------------
    def run_des(self, nbytes: int = 8, iters: int = 10) -> float:
        """Measure one-way time with the DES MPI: two ranks, round trips.

        Returns the mean one-way time in microseconds. At 8 bytes this is
        the latency; at megabyte sizes ``nbytes / (2·time)`` approximates
        bandwidth.
        """
        if iters < 1:
            raise ValueError("iters must be >= 1")

        def main(comm):
            peer = 1 - comm.rank
            start = comm.wtime()
            for _ in range(iters):
                if comm.rank == 0:
                    yield from comm.send(b"", dest=peer, nbytes=nbytes)
                    yield from comm.recv(source=peer)
                else:
                    yield from comm.recv(source=peer)
                    yield from comm.send(b"", dest=peer, nbytes=nbytes)
            return (comm.wtime() - start) / (2 * iters)

        result = MPIJob(self.machine, 2).run(main)
        return result.returns[0] * 1.0e6

    def run_des_bandwidth_GBs(self, nbytes: int = 4_000_000, iters: int = 5) -> float:
        """Large-message bandwidth measured on the DES network."""
        one_way_us = self.run_des(nbytes=nbytes, iters=iters)
        return nbytes / (one_way_us * 1.0e-6) / 1.0e9
