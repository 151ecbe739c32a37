"""Determinism guarantees: rng.fork streams and bit-identical replays."""

import numpy as np

from repro.machine import xt4
from repro.mpi import MPIJob, mpi_profiles
from repro.obs import Tracer
from repro.simengine.rng import DEFAULT_SEED, fork, seeded_rng

import pytest


# -- fork(stream_name) -------------------------------------------------------

def test_fork_same_stream_same_seed_is_identical():
    a = fork("placement", seed=123).random(16)
    b = fork("placement", seed=123).random(16)
    assert np.array_equal(a, b)


def test_fork_distinct_streams_are_independent():
    a = fork("placement", seed=123).random(16)
    b = fork("ring-order", seed=123).random(16)
    assert not np.array_equal(a, b)


def test_fork_defaults_to_repo_seed():
    assert np.array_equal(
        fork("x").random(8), fork("x", seed=DEFAULT_SEED).random(8)
    )


def test_fork_matches_seeded_rng_stream():
    assert np.array_equal(
        fork("s3d", seed=7).random(8), seeded_rng(7, stream="s3d").random(8)
    )


def test_fork_rejects_anonymous_stream():
    with pytest.raises(ValueError, match="stream name"):
        fork("")


# -- replay determinism ------------------------------------------------------

def _pingpong_trace(seed):
    """Run an 8-rank neighbour ping-pong under tracing; return the full
    event/trace sequence and per-rank completion times."""

    def main(comm, iters=4, nbytes=4096):
        peer = comm.rank ^ 1  # pair (0,1), (2,3), ...
        for _ in range(iters):
            if comm.rank % 2 == 0:
                yield from comm.send(b"x" * nbytes, dest=peer)
                yield from comm.recv(source=peer)
            else:
                yield from comm.recv(source=peer)
                yield from comm.send(b"x" * nbytes, dest=peer)
        yield from comm.barrier()
        return comm.wtime()

    tracer = Tracer()
    job = MPIJob(xt4("VN"), 8, placement="random", seed=seed, tracer=tracer)
    result = job.run(main)
    profiles = mpi_profiles(tracer)
    trace = [
        (rank, ev.name, ev.t0, ev.t1, ev.args["bytes"])
        for rank in sorted(profiles)
        for ev in profiles[rank].events
    ]
    return trace, result.rank_times, result.elapsed_s


def test_same_seed_gives_bit_identical_trace():
    """Two full simulator runs of the same 8-rank job replay the exact
    event sequence — same ops, same timestamps, same payloads."""
    trace1, times1, elapsed1 = _pingpong_trace(seed=42)
    trace2, times2, elapsed2 = _pingpong_trace(seed=42)
    assert trace1 == trace2          # bit-identical, not approx
    assert times1 == times2
    assert elapsed1 == elapsed2
    assert len(trace1) > 8 * 4       # sanity: the trace is non-trivial


def test_different_seed_changes_random_placement_trace():
    trace1, _, _ = _pingpong_trace(seed=1)
    trace2, _, _ = _pingpong_trace(seed=2)
    # ops are the same program; the timings depend on the placement draw.
    assert [t[:2] for t in trace1] == [t[:2] for t in trace2]
    assert trace1 != trace2
