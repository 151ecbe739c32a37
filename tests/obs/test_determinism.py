"""Trace determinism: identical seeded runs serialize byte-for-byte."""

from repro.machine.configs import xt4
from repro.mpi.job import MPIJob
from repro.obs import Tracer, dumps_chrome_trace


def _rank_main(comm):
    """An 8-rank neighbour ping-pong with a closing allreduce."""
    peer = comm.rank ^ 1
    for i in range(3):
        if comm.rank < peer:
            yield from comm.send(b"", dest=peer, tag=i, nbytes=512)
            yield from comm.recv(source=peer)
        else:
            yield from comm.recv(source=peer)
            yield from comm.send(b"", dest=peer, tag=i, nbytes=512)
    yield from comm.allreduce(1.0)
    return comm.wtime()


def _run(tracer=None) -> float:
    job = MPIJob(xt4("VN"), 8, placement="random", seed=42, tracer=tracer)
    return job.run(_rank_main).elapsed_s


def test_identical_runs_serialize_identically():
    a, b = Tracer(meta={"seed": 42}), Tracer(meta={"seed": 42})
    assert _run(a) == _run(b)
    assert dumps_chrome_trace(a) == dumps_chrome_trace(b)


def test_trace_has_real_content_and_stable_tracks():
    tracer = Tracer()
    _run(tracer)
    tracks = {s.track for s in tracer.spans}
    assert {f"rank{r}" for r in range(8)} <= tracks
    assert any(t.startswith("net/node") for t in tracks)
    assert any(n.startswith("net.link[") for n in tracer.counters)
    assert any(n.startswith("net.nic[") for n in tracer.counters)


def test_tracing_does_not_perturb_the_simulation():
    assert _run() == _run(Tracer())
