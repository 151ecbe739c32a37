"""Simulated MPI on the discrete-event kernel.

The API mirrors mpi4py's lowercase object interface, adapted to the
generator-based process style of :mod:`repro.simengine`: communication
calls are ``yield from``-able helpers on :class:`~repro.mpi.comm.Comm`.

Real payloads (NumPy arrays, scalars, tuples) travel between ranks, so
benchmark and mini-app numerics are exact; *time* is charged by the
machine, NIC-contention and collective cost models.

Example::

    from repro.machine import xt4
    from repro.mpi import MPIJob

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 1024, dest=1)
        elif comm.rank == 1:
            data = yield from comm.recv(source=0)
        total = yield from comm.allreduce(comm.rank, op="sum")
        return total

    result = MPIJob(xt4("VN"), ntasks=4).run(main)
    print(result.elapsed_s, result.returns)
"""

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Comm
from repro.mpi.costmodels import CollectiveCostModel
from repro.mpi.datatypes import payload_nbytes, reduce_values
from repro.mpi.job import JobFailedError, JobResult, MPIJob
from repro.mpi.profiler import MPIProfile, mpi_profiles
from repro.mpi.request import Request
from repro.mpi.subcomm import SubComm

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CollectiveCostModel",
    "Comm",
    "JobFailedError",
    "JobResult",
    "MPIJob",
    "MPIProfile",
    "Request",
    "SubComm",
    "mpi_profiles",
    "payload_nbytes",
    "reduce_values",
]
