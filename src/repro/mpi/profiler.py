"""Per-rank MPI profiling (an mpiP-style wrapper for the simulated MPI).

The paper's application analysis leans on knowing *where* MPI time goes
("70% of the difference in the physics ... is due to ... the
MPI_Alltoallv calls"). :class:`ProfiledComm` wraps a
:class:`~repro.mpi.comm.Comm` with the same generator API and records,
per operation, the call count, simulated time and payload bytes — so DES
runs of the mini-apps can be broken down exactly the way the paper
breaks down CAM and POP.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Comm
from repro.mpi.datatypes import payload_nbytes


@dataclass
class OpStats:
    """Accumulated statistics for one MPI operation on one rank."""

    calls: int = 0
    time_s: float = 0.0
    bytes: float = 0.0

    def add(self, dt: float, nbytes: float) -> None:
        self.calls += 1
        self.time_s += dt
        self.bytes += nbytes


@dataclass
class TraceEvent:
    """One timed MPI operation on one rank."""

    rank: int
    op: str
    t0: float
    t1: float
    nbytes: float

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0


@dataclass
class MPIProfile:
    """Profile of one rank's MPI activity."""

    rank: int
    ops: Dict[str, OpStats] = field(default_factory=lambda: defaultdict(OpStats))
    #: Populated when tracing is enabled: the rank's MPI timeline.
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        return sum(s.time_s for s in self.ops.values())

    @property
    def total_calls(self) -> int:
        return sum(s.calls for s in self.ops.values())

    def fraction(self, op: str) -> float:
        """Share of this rank's MPI time spent in ``op``."""
        total = self.total_time_s
        return self.ops[op].time_s / total if total else 0.0

    def as_rows(self) -> List[dict]:
        """Table rows (for :func:`repro.core.report.render_table`)."""
        return [
            {
                "op": op,
                "calls": s.calls,
                "time_ms": round(s.time_s * 1e3, 4),
                "MB": round(s.bytes / 1e6, 4),
            }
            for op, s in sorted(self.ops.items())
        ]


class ProfiledComm:
    """Drop-in :class:`Comm` wrapper that times every operation.

    All communication methods keep the generator calling convention, so
    existing rank functions work unmodified::

        def main(comm): ...              # written against Comm
        job.run(lambda c: main(ProfiledComm(c, profiles)))
    """

    def __init__(
        self,
        comm: Comm,
        sink: Optional[Dict[int, MPIProfile]] = None,
        trace: bool = False,
    ):
        self._comm = comm
        self._profile = MPIProfile(comm.rank)
        self._trace = trace
        #: When the job's simulator carries a tracer, every timed MPI
        #: operation is also emitted as an ``mpi.<op>`` span on this
        #: rank's track — so the MPI timeline lands in the same Perfetto
        #: file as the engine/network/memory instrumentation.
        self._tracer = comm.job.sim.tracer
        if sink is not None:
            sink[comm.rank] = self._profile

    # -- passthrough attributes ------------------------------------------
    @property
    def rank(self) -> int:
        return self._comm.rank

    @property
    def size(self) -> int:
        return self._comm.size

    @property
    def job(self):
        return self._comm.job

    def wtime(self) -> float:
        return self._comm.wtime()

    # -- timed delegation ---------------------------------------------------
    def _timed(self, op: str, gen, nbytes: float = 0.0):
        t0 = self._comm.wtime()
        result = yield from gen
        t1 = self._comm.wtime()
        self._profile.ops[op].add(t1 - t0, nbytes)
        if self._trace:
            self._profile.events.append(
                TraceEvent(self._comm.rank, op, t0, t1, nbytes)
            )
        if self._tracer is not None:
            self._tracer.complete(
                f"rank{self._comm.rank}", f"mpi.{op}", t0, t1, bytes=nbytes
            )
        return result

    def compute(self, flops: float, profile: str = "dgemm"):
        # Compute is *not* MPI time; delegate untimed.
        result = yield from self._comm.compute(flops, profile)
        return result

    def stream(self, nbytes: float):
        result = yield from self._comm.stream(nbytes)
        return result

    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        n = payload_nbytes(obj) if nbytes is None else nbytes
        result = yield from self._timed(
            "send", self._comm.send(obj, dest, tag, nbytes), n
        )
        return result

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        result = yield from self._timed("recv", self._comm.recv(source, tag))
        return result

    def recv_with_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        result = yield from self._timed(
            "recv", self._comm.recv_with_status(source, tag)
        )
        return result

    def sendrecv(self, obj: Any, dest: int, source: Optional[int] = None,
                 tag: int = 0, nbytes: Optional[int] = None):
        n = payload_nbytes(obj) if nbytes is None else nbytes
        result = yield from self._timed(
            "sendrecv", self._comm.sendrecv(obj, dest, source, tag, nbytes), n
        )
        return result

    def isend(self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        # Nonblocking: count the call; time accrues when waited on.
        n = payload_nbytes(obj) if nbytes is None else nbytes
        self._profile.ops["isend"].add(0.0, n)
        return self._comm.isend(obj, dest, tag, nbytes)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self._profile.ops["irecv"].add(0.0, 0.0)
        return self._comm.irecv(source, tag)

    def split(self, color: Any, key: Optional[int] = None):
        # Communicator management is not timed; the new communicator is
        # returned unwrapped.
        result = yield from self._comm.split(color, key)
        return result

    def dup(self):
        result = yield from self._comm.dup()
        return result

    def barrier(self):
        result = yield from self._timed("barrier", self._comm.barrier())
        return result

    def bcast(self, obj: Any = None, root: int = 0):
        result = yield from self._timed(
            "bcast", self._comm.bcast(obj, root), payload_nbytes(obj)
        )
        return result

    def reduce(self, value: Any, op: str = "sum", root: int = 0):
        result = yield from self._timed(
            "reduce", self._comm.reduce(value, op, root), payload_nbytes(value)
        )
        return result

    def allreduce(self, value: Any, op: str = "sum"):
        result = yield from self._timed(
            "allreduce", self._comm.allreduce(value, op), payload_nbytes(value)
        )
        return result

    def gather(self, value: Any, root: int = 0):
        result = yield from self._timed(
            "gather", self._comm.gather(value, root), payload_nbytes(value)
        )
        return result

    def allgather(self, value: Any):
        result = yield from self._timed(
            "allgather", self._comm.allgather(value), payload_nbytes(value)
        )
        return result

    def scatter(self, values: Optional[Sequence[Any]] = None, root: int = 0):
        result = yield from self._timed(
            "scatter", self._comm.scatter(values, root), payload_nbytes(values)
        )
        return result

    def reduce_scatter(self, values: Sequence[Any], op: str = "sum"):
        result = yield from self._timed(
            "reduce_scatter",
            self._comm.reduce_scatter(values, op),
            payload_nbytes(list(values)),
        )
        return result

    def scan(self, value: Any, op: str = "sum"):
        result = yield from self._timed(
            "scan", self._comm.scan(value, op), payload_nbytes(value)
        )
        return result

    def exscan(self, value: Any, op: str = "sum"):
        result = yield from self._timed(
            "exscan", self._comm.exscan(value, op), payload_nbytes(value)
        )
        return result

    def alltoall(self, values: Sequence[Any]):
        result = yield from self._timed(
            "alltoall", self._comm.alltoall(values), payload_nbytes(list(values))
        )
        return result

    def alltoallv(self, values: Sequence[Any]):
        result = yield from self._timed(
            "alltoallv", self._comm.alltoallv(values), payload_nbytes(list(values))
        )
        return result


def profiled_job_run(job, rank_main, *args, trace: bool = False, **kwargs):
    """Run ``rank_main`` under profiling; returns ``(JobResult, profiles)``.

    ``profiles`` maps rank → :class:`MPIProfile`; with ``trace=True`` each
    profile also carries the rank's :class:`TraceEvent` timeline.
    """
    profiles: Dict[int, MPIProfile] = {}

    def wrapper(comm, *a, **k):
        result = yield from rank_main(
            ProfiledComm(comm, profiles, trace=trace), *a, **k
        )
        return result

    result = job.run(wrapper, *args, **kwargs)
    return result, profiles


#: Gantt marker per operation class.
_OP_CHARS = {
    "send": "s", "recv": "r", "sendrecv": "x", "barrier": "|",
    "bcast": "b", "reduce": "+", "allreduce": "A", "gather": "g",
    "allgather": "G", "scatter": "c", "alltoall": "t", "alltoallv": "T",
    "reduce_scatter": "R", "scan": "n", "exscan": "n",
}


def render_timeline(
    profiles: Dict[int, MPIProfile], total_s: float, width: int = 72
) -> str:
    """Text Gantt chart of each rank's MPI activity ('.' = computing).

    Each column spans ``total_s / width`` simulated seconds; the marker of
    the operation occupying (most of) the column is drawn, '.' where the
    rank is outside MPI.
    """
    if total_s <= 0:
        raise ValueError("total_s must be positive")
    lines = [f"MPI timeline: {width} cols x {total_s * 1e3:.3f} ms"]
    for rank in sorted(profiles):
        row = ["."] * width
        for ev in profiles[rank].events:
            c0 = int(ev.t0 / total_s * width)
            c1 = max(c0 + 1, int(ev.t1 / total_s * width) + 1)
            mark = _OP_CHARS.get(ev.op, "?")
            for col in range(c0, min(c1, width)):
                row[col] = mark
        lines.append(f"rank {rank:4d} {''.join(row)}")
    legend = "  ".join(f"{v}={k}" for k, v in sorted(_OP_CHARS.items(), key=lambda kv: kv[1]))
    lines.append(legend)
    return "\n".join(lines)
