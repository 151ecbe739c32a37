"""A real distributed LU solver on the simulated MPI (mini-HPL).

1D block-cyclic *column* distribution with partial pivoting — the classic
LINPACK organization: each rank owns every ``p``-th column block. Because
whole columns are rank-local, pivot search is local to the panel owner;
pivot row swaps are broadcast with the factored panel and applied by
every rank to its own columns. Supports real and complex matrices (the
AORSA case). Tests check the solution against a known ``x_true``.

This is the execution-fidelity companion of
:class:`~repro.hpcc.hpl.HPLModel`: the model regenerates Figure 8 at
paper scale; this solver proves the algorithm and the communication
pattern the model prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.kernels.linsolve import solve_triangular
from repro.machine.specs import Machine
from repro.mpi.job import JobResult, MPIJob


def _owner(block: int, p: int) -> int:
    return block % p


@dataclass
class DistributedLU:
    """Block-cyclic LU with partial pivoting on ``ntasks`` simulated ranks."""

    machine: Machine
    ntasks: int
    block: int = 8

    def __post_init__(self) -> None:
        if self.ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        if self.block < 1:
            raise ValueError("block must be >= 1")

    def solve(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, JobResult]:
        """Solve ``A·x = b``; returns ``(x, JobResult)``.

        ``n`` must be a multiple of ``block``. The right-hand side is
        carried by rank 0 and updated during the forward pass.
        """
        a = np.asarray(a)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        if n % self.block:
            raise ValueError("n must be a multiple of the block size")
        nblocks = n // self.block
        p = self.ntasks
        nb = self.block
        dtype = np.result_type(a, np.float64)

        def my_blocks(rank: int) -> List[int]:
            return [j for j in range(nblocks) if _owner(j, p) == rank]

        def main(comm):
            rank = comm.rank
            mine = my_blocks(rank)
            # Local storage: owned column blocks, full column height.
            cols = {j: np.array(a[:, j * nb : (j + 1) * nb], dtype=dtype) for j in mine}
            rhs = np.array(b, dtype=dtype, copy=True) if rank == 0 else None

            for k in range(nblocks):
                owner = _owner(k, p)
                row0 = k * nb
                if rank == owner:
                    panel = cols[k]
                    pivots = np.empty(nb, dtype=np.int64)
                    for jj in range(nb):
                        col = row0 + jj
                        piv = col + int(np.argmax(np.abs(panel[col:, jj])))
                        pivots[jj] = piv
                        if panel[piv, jj] == 0:
                            raise np.linalg.LinAlgError("singular matrix")
                        if piv != col:
                            panel[[col, piv], :] = panel[[piv, col], :]
                        panel[col + 1 :, jj] /= panel[col, jj]
                        if jj + 1 < nb:
                            panel[col + 1 :, jj + 1 :] -= np.outer(
                                panel[col + 1 :, jj], panel[col, jj + 1 :]
                            )
                    # Charge the panel factorization flops.
                    yield from comm.compute(
                        2.0 * (n - row0) * nb * nb, profile="hpl"
                    )
                    payload = (pivots, panel[row0:, :])
                    for dest in range(comm.size):
                        if dest != rank:
                            yield from comm.send(payload, dest=dest, tag=k)
                else:
                    pivots, lower = yield from comm.recv(source=owner, tag=k)

                if rank == owner:
                    lower = panel[row0:, :]

                # Everyone applies the pivot swaps to their own columns
                # (and rank 0 to the RHS), then the trailing update.
                for jj, piv in enumerate(pivots):
                    col = row0 + jj
                    if piv != col:
                        for j, block_data in cols.items():
                            if rank == owner and j == k:
                                continue  # already swapped inside the panel
                            block_data[[col, piv], :] = block_data[[piv, col], :]
                        if rhs is not None:
                            rhs[[col, piv]] = rhs[[piv, col]]

                l11 = lower[:nb, :]  # unit lower: only below the diagonal is read
                l21 = lower[nb:, :]
                trailing = [j for j in cols if j > k]
                flops = 0.0
                for j in trailing:
                    block_data = cols[j]
                    u12 = solve_triangular(
                        l11,
                        block_data[row0 : row0 + nb, :],
                        lower=True,
                        unit_diagonal=True,
                    )
                    block_data[row0 : row0 + nb, :] = u12
                    if l21.size:
                        block_data[row0 + nb :, :] -= l21 @ u12
                    flops += 2.0 * l21.shape[0] * nb * nb + nb * nb * nb
                if flops:
                    yield from comm.compute(flops, profile="hpl")
                # Forward-substitute the RHS on rank 0.
                if rhs is not None:
                    y = solve_triangular(
                        l11, rhs[row0 : row0 + nb], lower=True, unit_diagonal=True
                    )
                    rhs[row0 : row0 + nb] = y
                    if l21.size:
                        rhs[row0 + nb :] -= l21 @ y

            # Back substitution: gather U onto rank 0 (fine at mini scale).
            gathered = yield from comm.gather(cols, root=0)
            if rank != 0:
                return None
            lu = np.zeros((n, n), dtype=dtype)
            for chunk in gathered:
                for j, block_data in chunk.items():
                    lu[:, j * nb : (j + 1) * nb] = block_data
            x = solve_triangular(lu, rhs, lower=False)
            return x

        job = MPIJob(self.machine, self.ntasks)
        result = job.run(main)
        return result.returns[0], result
