"""Exact simulated times of point-to-point traffic, pinned bit for bit.

Shape checks and rounded CSVs cannot show that a change to how a message
is matched, delivered or pushed through its transfer chain left every
queue entry at the same time under the same tie-break key. These values
(``float.hex`` of ``elapsed_s`` and of every rank's finish time, plus
the returns) were recorded while receives still matched through a
``simengine.Store`` with per-``(source, tag)`` predicates; any drift in
arrival order, matching order or route arbitration shows here. Each case
runs with the hybrid fast path on and off, which must agree.
"""

import pytest

from repro.machine import xt4
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIJob
from repro.network.simnet import hybrid_mode
from repro.simengine import Simulator


def _pingpong(comm, iters=30):
    """Rank r < size/2 ping-pongs with r + size/2, one tag per leg and
    message sizes alternating 8 B and 4 KiB."""
    half = comm.size // 2
    peer = (comm.rank + half) % comm.size
    for i in range(iters):
        n = 8 if i % 2 else 4096
        if comm.rank < half:
            yield from comm.send(b"", dest=peer, nbytes=n, tag=i)
            yield from comm.recv(source=peer, tag=i)
        else:
            yield from comm.recv(source=peer, tag=i)
            yield from comm.send(b"", dest=peer, nbytes=n, tag=i)
    return comm.wtime().hex()


def _two_pair_exchange(comm, nbytes=1_048_576, iters=4):
    """fig12_13's "i-(i+2) (VN)" exchange: both cores of node 0 swap
    with both cores of node 1, so the routes contend."""
    peer = (comm.rank + 2) % 4
    yield from comm.barrier()
    start = comm.wtime()
    for i in range(iters):
        yield from comm.sendrecv(b"", dest=peer, tag=i, nbytes=nbytes)
    return (comm.wtime() - start).hex()


def _wildcard_irecv(comm):
    """Rank 0 posts one wildcard irecv before anything arrives and one
    after two messages are already waiting."""
    if comm.rank == 0:
        early = comm.irecv(source=ANY_SOURCE, tag=ANY_TAG)
        first = yield from early.wait()
        t_first = comm.wtime()
        yield from comm.compute(1.0e8)
        late = comm.irecv(source=ANY_SOURCE, tag=ANY_TAG)
        assert late.test()  # already arrived: completes at once
        second = yield from late.wait()
        third = yield from comm.recv_with_status(ANY_SOURCE, ANY_TAG)
        yield from comm.send(first + second, dest=1, tag=3)
        return first, second, third, t_first.hex(), comm.wtime().hex()
    if comm.rank == 1:
        yield from comm.send("one", dest=0, tag=7)
        yield from comm.send("one-b", dest=0, tag=8, nbytes=65536)
        back = yield from comm.recv(source=0, tag=ANY_TAG)
        return back, comm.wtime().hex()
    yield from comm.compute(1.0e6)
    yield from comm.send("two", dest=0, tag=9)
    return comm.wtime().hex()


def _split_beside_world(comm):
    """Group and world messages on the same tag, in flight together."""
    pairs = yield from comm.split(comm.rank % 2)  # [0, 2] and [1, 3]
    if comm.rank == 0:
        yield from comm.send("world", dest=2, tag=5)
        yield from pairs.send("group", dest=1, tag=5, nbytes=2048)
        got = yield from pairs.sendrecv("g-swap", dest=1, tag=6)
        return got, comm.wtime().hex()
    if comm.rank == 2:
        yield from comm.compute(1.0e7)  # both messages land meanwhile
        group = yield from pairs.recv_with_status(ANY_SOURCE, ANY_TAG)
        world = yield from comm.recv(source=0, tag=5)
        got = yield from pairs.sendrecv("g-back", dest=0, tag=6)
        return group, world, got, comm.wtime().hex()
    # Ranks 1 and 3: world traffic on tag 5 beside their group's silence.
    peer = 4 - comm.rank
    got = yield from comm.sendrecv(comm.rank, dest=peer, tag=5)
    return got, comm.wtime().hex()


def _outcome(machine, ntasks, main):
    result = MPIJob(machine, ntasks).run(main)
    return (
        result.elapsed_s.hex(),
        tuple(t.hex() for t in result.rank_times),
        tuple(result.returns),
    )


CASES = {
    "sn_pingpong": (lambda: xt4("SN"), 2, _pingpong),
    "vn_pingpong": (lambda: xt4("VN"), 4, _pingpong),
    "vn_two_pair_exchange": (lambda: xt4("VN"), 4, _two_pair_exchange),
    "wildcard_irecv": (lambda: xt4("SN"), 3, _wildcard_irecv),
    "split_beside_world": (lambda: xt4("SN"), 4, _split_beside_world),
    "vn_intra_node_pair": (lambda: xt4("VN"), 2, _pingpong),
}

#: case -> (elapsed_s, rank times, returns), recorded as described above.
PINS = {
    "sn_pingpong": (
        "0x1.5bbcdde6371f8p-12",
        ("0x1.5bbcdde6371f8p-12", "0x1.5bbcdde6371f8p-12"),
        ("0x1.5bbcdde6371f8p-12", "0x1.5bbcdde6371f8p-12"),
    ),
    "split_beside_world": (
        "0x1.17f564bdce524p-9",
        ("0x1.17f564bdce524p-9", "0x1.ccab9efda96dcp-17",
         "0x1.17f564bdce524p-9", "0x1.ccab9efda96dcp-17"),
        (
            ("g-back", "0x1.17f564bdce524p-9"),
            (3, "0x1.ccab9efda96dcp-17"),
            (("group", 0, 5), "world", "g-swap", "0x1.17f564bdce524p-9"),
            (1, "0x1.ccab9efda96dcp-17"),
        ),
    ),
    "vn_intra_node_pair": (
        "0x1.690e23fee71b0p-14",
        ("0x1.690e23fee71b0p-14", "0x1.690e23fee71b0p-14"),
        ("0x1.690e23fee71b0p-14", "0x1.690e23fee71b0p-14"),
    ),
    "vn_pingpong": (
        "0x1.905c7decb396ap-11",
        ("0x1.8e28c706021c4p-11", "0x1.905c7decb396ap-11",
         "0x1.8e28c706021c4p-11", "0x1.905c7decb396ap-11"),
        ("0x1.8e28c706021c4p-11", "0x1.905c7decb396ap-11",
         "0x1.8e28c706021c4p-11", "0x1.905c7decb396ap-11"),
    ),
    "vn_two_pair_exchange": (
        "0x1.0745db04ae511p-8",
        ("0x1.cd193f88c8adap-9", "0x1.0745db04ae511p-8",
         "0x1.cd193f88c8adap-9", "0x1.0745db04ae511p-8"),
        ("0x1.cbab813f4c62dp-9", "0x1.068efbdff02bap-8",
         "0x1.cbab813f4c62dp-9", "0x1.068efbdff02bap-8"),
    ),
    "wildcard_irecv": (
        "0x1.5bd93bdde7d4dp-6",
        ("0x1.5bd93bdde7d4dp-6", "0x1.5bd93bdde7d4dp-6",
         "0x1.c6b4825539b8fp-13"),
        (
            ("one", "one-b", ("two", 2, 9), "0x1.3170f28c92815p-18",
             "0x1.5bd93bdde7d4dp-6"),
            ("oneone-b", "0x1.5bd93bdde7d4dp-6"),
            "0x1.c6b4825539b8fp-13",
        ),
    ),
}


@pytest.mark.parametrize("hybrid", [True, False])
@pytest.mark.parametrize("case", sorted(CASES))
def test_point_to_point_times_are_pinned(case, hybrid):
    machine, ntasks, main = CASES[case]
    with hybrid_mode(hybrid):
        assert _outcome(machine(), ntasks, main) == PINS[case]


def test_two_pair_exchange_hands_off_to_carry(monkeypatch):
    """The pinned two-pair case really reaches the contended hand-off."""
    calls = []
    original = Simulator._continue

    def counting(self, gen, name, key):
        calls.append(name)
        return original(self, gen, name, key)

    monkeypatch.setattr(Simulator, "_continue", counting)
    with hybrid_mode(True):
        MPIJob(xt4("VN"), 4).run(_two_pair_exchange)
    assert calls
