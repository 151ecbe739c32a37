"""Tests for the per-rank MPI timeline and the text Gantt renderer."""

import pytest

from repro.machine import xt4
from repro.mpi import MPIJob, mpi_profiles
from repro.mpi.profiler import render_timeline
from repro.obs import Tracer


def traced(fn, ntasks=4):
    tracer = Tracer()
    result = MPIJob(xt4("SN"), ntasks, tracer=tracer).run(fn)
    return result, mpi_profiles(tracer)


def test_events_recorded_in_time_order():
    def main(comm):
        yield from comm.barrier()
        yield from comm.allreduce(1.0)
        yield from comm.barrier()
        return None

    result, profiles = traced(main)
    events = profiles[0].events
    assert [e.name for e in events] == ["mpi.barrier", "mpi.allreduce", "mpi.barrier"]
    assert all(e.t1 >= e.t0 for e in events)
    assert events[0].t1 <= events[1].t0 <= events[2].t0


def test_event_durations_match_opstats():
    def main(comm):
        yield from comm.allreduce(1.0)
        yield from comm.allreduce(2.0)
        return None

    _, profiles = traced(main)
    p = profiles[0]
    assert sum(e.duration_s for e in p.events) == pytest.approx(
        p.ops["allreduce"].time_s
    )


def test_render_timeline():
    def main(comm):
        yield from comm.compute(1e7)
        payloads = [b"x" * 50_000] * comm.size
        yield from comm.alltoallv(payloads)
        yield from comm.compute(1e7)
        yield from comm.barrier()  # last event: owns the final column
        return None

    result, profiles = traced(main)
    chart = render_timeline(profiles, result.elapsed_s, width=40)
    lines = chart.splitlines()
    assert lines[0].startswith("MPI timeline")
    assert len([l for l in lines if l.startswith("rank")]) == 4
    body = "\n".join(lines[1:-1])
    assert "." in body  # compute time visible
    assert "T" in body  # alltoallv visible
    assert "|" in body  # barrier visible


def test_render_timeline_validation():
    with pytest.raises(ValueError):
        render_timeline({}, 0.0)


def test_one_span_per_call_on_the_world_rank_track():
    """Sub-communicator calls land on the caller's world-rank track;
    send/sendrecv hide their inner isend/recv; split/dup are untimed."""

    def main(comm):
        sub = yield from comm.split(comm.rank % 2)  # {0, 2} and {1, 3}
        dup = yield from sub.dup()
        yield from sub.allreduce(1.0)
        peer = 1 - sub.rank
        if sub.rank == 0:
            yield from sub.send(b"x" * 100, dest=peer)
        else:
            yield from sub.recv(source=peer)
        yield from dup.sendrecv(b"y" * 10, dest=peer)
        yield from comm.sendrecv(b"z", dest=comm.rank ^ 1)
        return None

    tracer = Tracer()
    MPIJob(xt4("SN"), 4, tracer=tracer).run(main)
    names = {}
    for span in tracer.spans:
        if span.track.startswith("rank"):
            names.setdefault(span.track, []).append(span.name)
    for rank in range(4):
        p2p = "mpi.send" if rank < 2 else "mpi.recv"
        assert names[f"rank{rank}"] == [
            "mpi.allreduce", p2p, "mpi.sendrecv", "mpi.sendrecv"
        ]
    sub_send = [s for s in tracer.spans if s.name == "mpi.send"]
    assert [s.args["bytes"] for s in sub_send] == [100, 100]
