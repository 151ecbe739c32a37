"""Tests for the MPI profiler (mpiP-style breakdowns of DES runs)."""

import numpy as np
import pytest

from repro.machine import xt4
from repro.mpi import MPIJob, mpi_profiles
from repro.mpi.profiler import MPIProfile
from repro.obs import Tracer


def run_profiled(machine, ntasks, fn, *args):
    tracer = Tracer()
    result = MPIJob(machine, ntasks, tracer=tracer).run(fn, *args)
    return result, mpi_profiles(tracer)


def test_counts_and_ops_recorded():
    def main(comm):
        yield from comm.barrier()
        yield from comm.allreduce(1.0)
        yield from comm.allreduce(2.0)
        if comm.rank == 0:
            yield from comm.send(b"x" * 100, dest=1)
        elif comm.rank == 1:
            yield from comm.recv(source=0)
        return None

    result, profiles = run_profiled(xt4("SN"), 2, main)
    p0 = profiles[0]
    assert p0.ops["barrier"].calls == 1
    assert p0.ops["allreduce"].calls == 2
    assert p0.ops["send"].calls == 1
    assert p0.ops["send"].bytes == 100
    assert profiles[1].ops["recv"].calls == 1
    assert p0.total_calls == 4


def test_time_accumulates_and_fraction():
    def main(comm):
        yield from comm.allreduce(np.zeros(8))
        payloads = [b"x" * 10_000] * comm.size
        yield from comm.alltoallv(payloads)
        return None

    _, profiles = run_profiled(xt4("VN"), 4, main)
    p = profiles[0]
    assert p.total_time_s > 0
    assert 0 < p.fraction("alltoallv") < 1
    assert p.fraction("allreduce") + p.fraction("alltoallv") == pytest.approx(1.0)


def test_compute_is_not_mpi_time():
    def main(comm):
        yield from comm.compute(1.0e9)
        yield from comm.barrier()
        return None

    _, profiles = run_profiled(xt4("SN"), 2, main)
    # Only the barrier appears; compute time excluded.
    assert set(profiles[0].ops) == {"barrier"}


def test_wrapped_comm_passthrough_semantics():
    def main(comm):
        assert comm.size == 3
        v = yield from comm.allgather(comm.rank)
        g = yield from comm.gather(comm.rank, root=1)
        s = yield from comm.scatter([10, 20, 30] if comm.rank == 0 else None, root=0)
        b = yield from comm.bcast("hi" if comm.rank == 2 else None, root=2)
        r = yield from comm.reduce(1, op="sum", root=0)
        return (v, g, s, b, r)

    result, profiles = run_profiled(xt4("SN"), 3, main)
    v, g, s, b, r = result.returns[2]
    assert v == [0, 1, 2]
    assert s == 30 and b == "hi"
    assert profiles[2].ops["allgather"].calls == 1


def test_sendrecv_and_nonblocking_counted():
    def main(comm):
        peer = 1 - comm.rank
        req = comm.isend(comm.rank, dest=peer, tag=9)
        data = yield from comm.recv(source=peer, tag=9)
        yield req.event
        out = yield from comm.sendrecv(data, dest=peer, tag=10)
        return out

    _, profiles = run_profiled(xt4("SN"), 2, main)
    assert profiles[0].ops["isend"].calls == 1
    assert profiles[0].ops["sendrecv"].calls == 1


def test_profile_rows_render():
    from repro.core.report import render_table

    def main(comm):
        yield from comm.barrier()
        return None

    _, profiles = run_profiled(xt4("SN"), 2, main)
    text = render_table(profiles[0].as_rows())
    assert "barrier" in text


def test_alltoallv_dominates_cam_style_breakdown():
    """A CAM-physics-shaped step: heavy alltoallv + tiny allreduce — the
    profiler attributes the MPI time the way Fig. 16's analysis does."""

    def main(comm):
        payloads = [b"x" * 50_000] * comm.size
        for _ in range(4):
            yield from comm.alltoallv(payloads)
        yield from comm.allreduce(0.0)
        return None

    _, profiles = run_profiled(xt4("VN"), 8, main)
    assert profiles[0].fraction("alltoallv") > 0.7


def test_empty_profile_fraction_zero():
    p = MPIProfile(rank=0)
    assert p.fraction("send") == 0.0
    assert p.total_time_s == 0.0


def test_scans_and_reduce_scatter_match_unwrapped_and_are_timed():
    def main(comm):
        rs = yield from comm.reduce_scatter([comm.rank + s for s in range(comm.size)])
        sc = yield from comm.scan(comm.rank + 1)
        ex = yield from comm.exscan(comm.rank + 1, op="max")
        sub = yield from comm.split(comm.rank % 2)
        dup = yield from comm.dup()
        return (rs, sc, ex, sub.size, dup.size)

    plain = MPIJob(xt4("SN"), 4).run(main)
    profiled, profiles = run_profiled(xt4("SN"), 4, main)
    assert profiled.returns == plain.returns
    assert profiled.elapsed_s == plain.elapsed_s
    assert plain.returns[3] == (6 + 4 * 3, 10, 3, 2, 4)
    for profile in profiles.values():
        assert set(profile.ops) == {"reduce_scatter", "scan", "exscan"}
        for stats in profile.ops.values():
            assert stats.calls == 1 and stats.time_s > 0
