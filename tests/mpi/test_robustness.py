"""Robustness tests: runaway guards, comm duplication, cleanup paths."""

import pytest

from repro.machine import xt4
from repro.mpi import MPIJob
from repro.network.simnet import SimNetwork
from repro.simengine import Interrupt, Simulator


def test_max_events_aborts_runaway_rank_program():
    def main(comm):
        while True:  # forgot the termination condition
            yield from comm.barrier()

    with pytest.raises(RuntimeError, match="max_events"):
        MPIJob(xt4("SN"), 2).run(main, max_events=5000)


def test_dup_isolates_collective_sequences():
    def main(comm):
        lib = yield from comm.dup()
        # Application and "library" interleave collectives freely.
        a = yield from comm.allreduce(1)
        b = yield from lib.allreduce(10)
        c = yield from comm.allreduce(2)
        d = yield from lib.allreduce(20)
        return (a, b, c, d)

    res = MPIJob(xt4("SN"), 4).run(main)
    assert res.returns[0] == (4, 40, 8, 80)


def test_dup_preserves_rank_and_size():
    def main(comm):
        d = yield from comm.dup()
        return (d.rank, d.size, d.world_ranks)

    res = MPIJob(xt4("SN"), 3).run(main)
    assert res.returns[1] == (1, 3, [0, 1, 2])


def test_resource_released_when_holder_interrupted():
    """``SimNetwork.carry`` releases its route in its finally block on
    interrupt: a transfer queued behind it gets the route at once."""
    sim = Simulator()
    net = SimNetwork(sim, xt4("SN"))
    order = []

    def holder():
        try:
            yield from net.carry(0, 1, 1.0e12)
        except Interrupt:
            order.append(("interrupted", sim.now))

    def waiter():
        yield from net.carry(0, 1, 0)
        order.append(("acquired", sim.now))

    h = sim.spawn(holder())
    sim.spawn(waiter())
    sim.schedule(1.0, lambda: h.interrupt("stop"))
    sim.run()
    assert ("interrupted", 1.0) in order
    assert ("acquired", 1.0) in order  # route recovered immediately
    assert net.held_ports() == []


def test_rank_exception_propagates_with_context():
    def main(comm):
        if comm.rank == 1:
            raise ValueError("rank 1 exploded")
        yield from comm.barrier()

    with pytest.raises(ValueError, match="rank 1 exploded"):
        MPIJob(xt4("SN"), 2).run(main)


def test_store_get_event_resolution_after_cancelled_style_race():
    """Two getters, one item: exactly one resumes; the job deadlock
    detector reports the other."""

    def main(comm):
        if comm.rank == 0:
            yield from comm.send("only-one", dest=1, tag=5)
            return "sent"
        elif comm.rank in (1, 2):
            # Rank 2 waits for a message that never comes.
            got = yield from comm.recv(source=0, tag=5)
            return got
        return None

    with pytest.raises(RuntimeError, match="deadlock"):
        MPIJob(xt4("SN"), 3).run(main)


@pytest.mark.parametrize("ntasks", [300, 600])
def test_gather_by_recv_from_many_early_senders_does_not_recurse(ntasks):
    """Every message has arrived before rank 0 asks for it, so each recv
    is satisfied at once; hundreds in a row must not grow the stack."""

    def main(comm):
        if comm.rank == 0:
            yield from comm.compute(1e12)
            got = 0
            for src in range(1, comm.size):
                got += yield from comm.recv(source=src)
            return got
        yield from comm.send(comm.rank, dest=0)
        return None

    res = MPIJob(xt4("SN"), ntasks=ntasks).run(main)
    assert res.returns[0] == sum(range(1, ntasks))
