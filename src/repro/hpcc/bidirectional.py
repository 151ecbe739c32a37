"""Bidirectional MPI bandwidth/latency experiments (Figures 12–13).

Two discrete-event experiments from paper §5.2:

* **one pair** ("0-1 internode"): two tasks on two different nodes
  exchange simultaneously; the partner core (if any) is idle.
* **two pairs** ("i-(i+2), i=0,1 (VN)"): both cores of node 0 exchange
  with both cores of node 1 — the worst case for the shared NIC.

Run on the DES network so the headline observations *emerge* from
contention rather than being asserted: two-pair bandwidth is exactly half
per pair (serialized injection), and two-pair small-message latency is
more than twice the one-pair value (NIC-sharing surcharge + queuing).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.machine.specs import Machine
from repro.mpi.job import MPIJob

#: Default message-size sweep (bytes), log-spaced like the paper's figures.
DEFAULT_SIZES: Tuple[int, ...] = (
    8, 64, 512, 4096, 32_768, 100_000, 262_144, 1_048_576, 4_194_304
)


class BidirectionalBandwidth:
    """Paired-exchange bandwidth on a machine (any of XT3/XT3-DC/XT4)."""

    def __init__(self, machine: Machine, iters: int = 4) -> None:
        self.machine = machine
        self.iters = iters

    def _run(self, nbytes: int, pairs: int) -> float:
        """Elapsed seconds for ``iters`` simultaneous exchanges."""
        if pairs == 1:
            machine = self.machine.with_mode("SN")
            ntasks = 2

            def peer_of(rank: int) -> int:
                return 1 - rank

        elif pairs == 2:
            if self.machine.node.cores < 2:
                raise ValueError("two-pair experiment needs a dual-core node")
            machine = self.machine.with_mode("VN")
            ntasks = 4

            def peer_of(rank: int) -> int:
                return (rank + 2) % 4

        else:
            raise ValueError("pairs must be 1 or 2")

        iters = self.iters

        def main(comm):
            peer = peer_of(comm.rank)
            yield from comm.barrier()
            start = comm.wtime()
            for i in range(iters):
                yield from comm.sendrecv(b"", dest=peer, tag=i, nbytes=nbytes)
            return comm.wtime() - start

        result = MPIJob(machine, ntasks).run(main)
        return max(result.returns)

    # -- metrics ---------------------------------------------------------------
    def bandwidth_GBs(self, nbytes: int, pairs: int = 1) -> float:
        """Per-pair bidirectional bandwidth at one message size."""
        if nbytes < 1:
            raise ValueError("nbytes must be >= 1")
        elapsed = self._run(nbytes, pairs)
        return 2.0 * nbytes * self.iters / elapsed / 1.0e9

    def latency_us(self, pairs: int = 1) -> float:
        """Small-message (8 B) exchange time, per message, in µs."""
        elapsed = self._run(8, pairs)
        return elapsed / self.iters * 1.0e6

    def sweep(self, pairs: int = 1, sizes: Tuple[int, ...] = DEFAULT_SIZES):
        """Bandwidth across the size sweep: ``(sizes, GB/s per pair)``."""
        bws: List[float] = [self.bandwidth_GBs(m, pairs) for m in sizes]
        return list(sizes), bws
