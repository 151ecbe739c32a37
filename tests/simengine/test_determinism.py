"""Determinism guarantees: rng.fork streams and bit-identical replays."""

import random

from repro.machine import xt4
from repro.mpi import MPIJob, mpi_profiles
from repro.obs import Tracer
from repro.simengine.rng import DEFAULT_SEED, fork

import pytest


# -- fork(stream_name) -------------------------------------------------------

def _draws(rng: random.Random, n: int = 16) -> list:
    return [rng.random() for _ in range(n)]


def test_fork_same_stream_same_seed_is_identical():
    assert _draws(fork("placement", seed=123)) == _draws(fork("placement", seed=123))


def test_fork_distinct_streams_are_independent():
    assert _draws(fork("placement", seed=123)) != _draws(fork("ring-order", seed=123))


def test_fork_defaults_to_repo_seed():
    assert _draws(fork("x"), 8) == _draws(fork("x", seed=DEFAULT_SEED), 8)


def test_fork_draws_are_pinned():
    """Golden draws of one (seed, stream) pair: a change to fork's seeding
    or to the stdlib generator shows here, not as a silently different
    ext_resilience figure."""
    rng = fork("faults.node_crash", seed=7)
    assert isinstance(rng, random.Random)
    assert [rng.random() for _ in range(3)] == [
        0.9153835610221734, 0.8154697915026308, 0.8503575058584798,
    ]
    assert [rng.expovariate(2.0) for _ in range(3)] == [
        0.408921250969832, 0.5581736749356451, 0.32717558131706753,
    ]
    assert [rng.randrange(1000) for _ in range(4)] == [780, 526, 804, 354]


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
