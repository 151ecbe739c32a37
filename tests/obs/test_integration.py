"""Cross-layer integration: tracer data agrees with the job's own clocks.

The acceptance bar for the observability work: a traced run's spans on
each rank track tile that rank's timeline exactly, and the
engine/memory instrumentation carries physically sensible values.
"""

import pytest

from repro.machine.configs import PROFILES, xt4
from repro.mpi.job import MPIJob
from repro.obs import Tracer
from repro.simengine import Simulator


def _physics_main(comm):
    for _ in range(2):
        yield from comm.compute(5.0e7, profile="dgemm")
        yield from comm.stream(1.0e6)
        yield from comm.allreduce(1.0)
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        yield from comm.sendrecv(b"x" * 4096, dest=right, source=left, tag=0)
    yield from comm.barrier()
    return comm.wtime()


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    job = MPIJob(xt4("VN"), 8, tracer=tracer)
    result = job.run(_physics_main)
    return tracer, job, result


@pytest.mark.parametrize("mode", ["SN", "VN"])
def test_rank_track_spans_tile_rank_times(mode):
    """Each rank is always in exactly one of MPI, compute or stream, so
    the spans on its track sum to its completion time."""
    tracer = Tracer()
    result = MPIJob(xt4(mode), 8, tracer=tracer).run(_physics_main)
    totals = [0.0] * 8
    for span in tracer.spans:
        if span.track.startswith("rank"):
            assert span.name.startswith(("mpi.", "compute.", "stream"))
            totals[int(span.track[4:])] += span.duration_s
    for rank, finish in enumerate(result.rank_times):
        assert totals[rank] == pytest.approx(finish, rel=1e-12), f"rank {rank}"


def test_compute_and_stream_spans_on_rank_tracks(traced_run):
    tracer, job, _result = traced_run
    names = {s.name for s in tracer.spans if s.track == "rank0"}
    assert "compute.dgemm" in names
    assert "stream" in names
    compute = [s for s in tracer.spans
               if s.track == "rank0" and s.name == "compute.dgemm"]
    expected = job.compute_time_s(0, 5.0e7, "dgemm")
    assert compute[0].duration_s == pytest.approx(expected, rel=1e-12)


def test_memory_counters_are_physical(traced_run):
    tracer, job, result = traced_run
    stall = tracer.counters.get("machine.core[rank0].stall_s")
    assert stall is not None
    # Cumulative stall time is positive and bounded by the run length.
    assert 0.0 < stall.total <= result.elapsed_s
    mem = [c for n, c in tracer.counters.items()
           if n.startswith("machine.mem[")]
    assert mem, "no memory-controller counters"
    for counter in mem:
        series = counter.series()
        # Accumulating +rate/-rate pairs: starts and ends at zero draw.
        assert series[-1][1] == pytest.approx(0.0, abs=1e-9)
        peak = max(v for _t, v in series)
        assert 0.0 < peak <= job.machine.node.memory.achievable_bw_GBs * 1.001


def test_stall_fraction_orders_profiles_by_memory_intensity():
    from repro.machine.processor import CoreModel

    core = CoreModel(xt4("VN"))
    f_dgemm = core.memory.stall_fraction(PROFILES["dgemm"], core.peak_gflops, 2)
    f_fft = core.memory.stall_fraction(PROFILES["fft"], core.peak_gflops, 2)
    assert 0.0 <= f_dgemm < 1.0
    # FFT moves 100x the bytes per flop: it must stall far more than DGEMM.
    assert f_fft > f_dgemm


def test_mds_spans_track_contention():
    """Three creates at t=0 queue on the one MDS: each waits for the
    ones before it (``res.acquire``) and holds it for one op latency
    (``res.hold``)."""
    from repro.lustre import LustreFilesystem

    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    fs = LustreFilesystem(sim)
    op_s = fs.config.mds_op_latency_us * 1.0e-6

    for i in range(3):
        sim.spawn(fs.create(f"f{i}"), name=f"u{i}")
    sim.run()
    spans = [(s.name, s.t0, s.t1) for s in tracer.spans if s.track == "res/MDS"]
    holds = [(t0, t1) for name, t0, t1 in spans if name == "res.hold"]
    assert holds == [(0.0, op_s), (op_s, 2 * op_s), (2 * op_s, 3 * op_s)]
    waits = [(t0, t1) for name, t0, t1 in spans if name == "res.acquire"]
    assert waits == [(0.0, op_s), (0.0, 2 * op_s)]
    assert sim.now == 3 * op_s and fs.mds_ops == 3
    assert not any(name.startswith("engine.") for name in tracer.counters)
