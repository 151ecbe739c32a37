"""Per-rank MPI profiles: an mpiP-style view over a run's ``mpi.*`` spans.

The paper's application analysis leans on knowing *where* MPI time goes
("70% of the difference in the physics ... is due to ... the
MPI_Alltoallv calls"). When a job carries a :class:`~repro.obs.Tracer`,
every :class:`~repro.mpi.comm.Comm` operation records an ``mpi.<op>``
span on its world rank's track; :func:`mpi_profiles` folds those spans
into per-operation call counts, simulated time and payload bytes — so
DES runs of the mini-apps can be broken down exactly the way the paper
breaks down CAM and POP::

    tracer = Tracer()
    result = MPIJob(xt4("VN"), 8, tracer=tracer).run(main)
    profiles = mpi_profiles(tracer)       # rank -> MPIProfile
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Span, Tracer


class OpStats:
    """Accumulated statistics for one MPI operation on one rank."""

    def __init__(self, calls: int = 0, time_s: float = 0.0, bytes: float = 0.0) -> None:
        self.calls = calls
        self.time_s = time_s
        self.bytes = bytes

    def add(self, dt: float, nbytes: float) -> None:
        self.calls += 1
        self.time_s += dt
        self.bytes += nbytes


class MPIProfile:
    """Profile of one rank's MPI activity.

    ``events`` holds the rank's ``mpi.*`` spans in time order: its MPI
    timeline.
    """

    def __init__(
        self,
        rank: int,
        ops: Optional[Dict[str, OpStats]] = None,
        events: Optional[List[Span]] = None,
    ) -> None:
        self.rank = rank
        self.ops = defaultdict(OpStats) if ops is None else ops
        self.events = [] if events is None else events

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


def mpi_profiles(tracer: Tracer) -> Dict[int, MPIProfile]:
    """Per-rank :class:`MPIProfile` built from the ``mpi.*`` spans on the
    ``rank<r>`` tracks of ``tracer``.

    Ranks that made no MPI call have no entry. ``isend``/``irecv`` are
    zero-length markers: counted, with their bytes, but never timed.
    """
    profiles: Dict[int, MPIProfile] = {}
    for span in tracer.spans:
        if not (span.name.startswith("mpi.") and span.track.startswith("rank")):
            continue
        rank = int(span.track[4:])
        profile = profiles.get(rank)
        if profile is None:
            profile = profiles[rank] = MPIProfile(rank)
        profile.ops[span.name[4:]].add(span.duration_s, span.args["bytes"])
        # A rank runs one operation at a time, so its spans are recorded
        # in time order.
        profile.events.append(span)
    return profiles


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
            mark = _OP_CHARS.get(ev.name[4:], "?")
            for col in range(c0, min(c1, width)):
                row[col] = mark
        lines.append(f"rank {rank:4d} {''.join(row)}")
    legend = "  ".join(f"{v}={k}" for k, v in sorted(_OP_CHARS.items(), key=lambda kv: kv[1]))
    lines.append(legend)
    return "\n".join(lines)
