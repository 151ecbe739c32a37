"""Mini-CAM: a complete dynamics+physics timestep on the simulated MPI.

Integrates the real pieces into the paper's per-step control flow
(§6.1: "control moves between the dynamics and the physics at least
once during each model simulation timestep"):

1. **dynamics** — the finite-volume advection step with halo exchanges
   (:class:`~repro.apps.cam.dycore.MiniDycore` numerics);
2. **remap** — the decomposition-change Alltoallv (fields reshuffled
   between the two 2D layouts, round-trip inside the step);
3. **physics** — column work with day/night imbalance, load-balanced via
   Alltoallv (:mod:`~repro.apps.cam.physics` weights).

Run under a tracer, the step yields the paper's Figure-16-style
phase/operation breakdown from an actual execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.apps.cam.dycore import MiniDycore
from repro.apps.cam.physics import balance_columns, column_weights
from repro.machine.specs import Machine
from repro.mpi.job import JobResult, MPIJob
from repro.mpi.profiler import MPIProfile, mpi_profiles
from repro.obs.tracer import Tracer

#: CAL (mini scale): flops charged per column per physics step.
MINI_PHYS_FLOPS_PER_COLUMN = 2.0e5
#: Flops charged per cell per dynamics substep.
MINI_DYN_FLOPS_PER_CELL = 60.0


@dataclass
class MiniCAM:
    """A miniature CAM on an (nlat, nlon) grid over ``ntasks`` ranks."""

    machine: Machine
    ntasks: int
    nlat: int = 16
    nlon: int = 16

    def __post_init__(self) -> None:
        if self.nlat % self.ntasks:
            raise ValueError("nlat must divide evenly among tasks")

    def run(
        self, q0: np.ndarray, nsteps: int = 2
    ) -> Tuple[np.ndarray, JobResult, Dict[int, MPIProfile]]:
        """Advance ``nsteps`` full timesteps; returns
        ``(tracer field, JobResult, per-rank MPI profiles)``."""
        if q0.shape != (self.nlat, self.nlon):
            raise ValueError("initial field shape mismatch")
        dyc = MiniDycore(nlat=self.nlat, nlon=self.nlon)
        rows = self.nlat // self.ntasks
        weights = column_weights(self.nlat, self.nlon)
        owners = balance_columns(weights, self.ntasks)
        flat_w = weights.ravel()

        def main(comm):
            lo = comm.rank * rows
            block = np.array(q0[lo : lo + rows], dtype=float, copy=True)
            north = (comm.rank + 1) % comm.size
            south = (comm.rank - 1) % comm.size
            for step in range(nsteps):
                # -- dynamics: FV advection with ghost rows ---------------
                s_ghost = yield from comm.sendrecv(
                    block[-1].copy(), dest=north, source=south, tag=4 * step
                )
                n_ghost = yield from comm.sendrecv(
                    block[0].copy(), dest=south, source=north, tag=4 * step + 1
                )
                qg = np.vstack([s_ghost[None, :], block, n_ghost[None, :]])
                yield from comm.compute(
                    MINI_DYN_FLOPS_PER_CELL * block.size, profile="dgemm"
                )
                block = dyc._step_interior(qg)
                # -- remap out/in: the decomposition-change Alltoallv -----
                col_chunks = np.array_split(
                    np.arange(self.nlon), comm.size
                )
                out = [
                    np.ascontiguousarray(block[:, cols]) for cols in col_chunks
                ]
                received = yield from comm.alltoallv(out)
                column_view = np.vstack(received)  # (nlat, my_cols)
                back = np.array_split(column_view, comm.size, axis=0)
                received = yield from comm.alltoallv(
                    [np.ascontiguousarray(x) for x in back]
                )
                block = np.hstack(received)
                # -- physics: balanced column work ------------------------
                my_cols = owners[comm.rank]
                my_weight = float(flat_w[my_cols].sum())
                yield from comm.compute(
                    my_weight * MINI_PHYS_FLOPS_PER_COLUMN, profile="dgemm"
                )
                # Physics tendency: mild relaxation toward the zonal mean
                # (a real, conservative column adjustment).
                zonal_mean = yield from comm.allreduce(
                    block.sum(axis=0), op="sum"
                )
                zonal_mean = zonal_mean / self.nlat
                block = block + 0.1 * (zonal_mean[None, :] - block)
            gathered = yield from comm.gather(block, root=0)
            return np.vstack(gathered) if comm.rank == 0 else None

        tracer = Tracer()
        result = MPIJob(self.machine, self.ntasks, tracer=tracer).run(main)
        return result.returns[0], result, mpi_profiles(tracer)

    def mpi_breakdown(self, q0: np.ndarray, nsteps: int = 2) -> Dict[str, float]:
        """Aggregate MPI seconds by operation across ranks (Fig. 16 style)."""
        _, _, profiles = self.run(q0, nsteps)
        totals: Dict[str, float] = {}
        for p in profiles.values():
            for op, stats in p.ops.items():
                totals[op] = totals.get(op, 0.0) + stats.time_s
        return totals
