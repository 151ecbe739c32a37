"""Receive matching: each world rank's mailbox and its posted receives.

A receive takes the oldest arrived message whose envelope (context,
source, tag) it matches; a delivery goes to the oldest posted receive it
matches. Only a receive that has to wait makes an event, and only that
event can be withdrawn.
"""

import pytest

from repro.faults import FaultEvent, FaultPlan
from repro.machine import xt4
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIJob
from repro.mpi.job import JobFailedError


def run(fn, ntasks=2):
    return MPIJob(xt4("SN"), ntasks).run(fn)


def test_receive_takes_a_message_that_already_arrived():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send("x", dest=1)
            return None
        yield from comm.compute(1e9)  # the message lands meanwhile
        t = comm.wtime()
        got = yield from comm.recv(source=0)
        return got, comm.wtime() == t

    assert run(main).returns[1] == ("x", True)


def test_receive_waits_until_a_matching_message_is_delivered():
    def main(comm):
        if comm.rank == 0:
            yield from comm.compute(1e9)
            sent_at = comm.wtime()
            yield from comm.send("late", dest=1)
            return sent_at
        got = yield from comm.recv(source=0)
        return got, comm.wtime()

    res = run(main)
    got, t = res.returns[1]
    assert got == "late" and t > res.returns[0] > 0


def test_matching_messages_are_received_in_arrival_order():
    """FIFO among matches: the tag-1 messages in the order sent, the
    tag-2 one left for its own receive."""

    def main(comm):
        if comm.rank == 0:
            for obj, tag in (("a1", 1), ("b", 2), ("a3", 1)):
                yield from comm.send(obj, dest=1, tag=tag)
            return None
        yield from comm.compute(1e9)  # all three land meanwhile
        first = yield from comm.recv(source=0, tag=1)
        second = yield from comm.recv(source=ANY_SOURCE, tag=1)
        rest = yield from comm.recv(tag=ANY_TAG)
        return first, second, rest

    assert run(main).returns[1] == ("a1", "a3", "b")


def test_non_matching_delivery_does_not_wake_a_waiting_receive():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send("other", dest=1, tag=1)
            other_at = comm.wtime()
            yield from comm.compute(1e9)
            yield from comm.send("wanted", dest=1, tag=2)
            return other_at
        got = yield from comm.recv(source=0, tag=2)
        woke = comm.wtime()
        other = yield from comm.recv(source=0, tag=1)  # left in the mailbox
        return got, other, woke

    res = run(main)
    got, other, woke = res.returns[1]
    assert (got, other) == ("wanted", "other")
    assert woke > res.returns[0]


def test_only_a_waiting_receive_carries_an_abandon_hook():
    """An irecv that has to wait posts an event that can be withdrawn;
    one whose message already arrived completes at once, with none."""

    def main(comm):
        if comm.rank == 0:
            yield from comm.send("first", dest=1)
            yield from comm.send("second", dest=1)
            return None
        early = comm.irecv(source=0)
        assert not early.test() and early.event._abandon_cb is not None
        first = yield from early.wait()
        yield from comm.compute(1e9)  # "second" lands meanwhile
        late = comm.irecv(source=0)
        assert late.test() and late.event._abandon_cb is None
        second = yield from late.wait()
        return first, second

    assert run(main).returns[1] == ("first", "second")


@pytest.mark.parametrize("op", ["recv", "sendrecv"])
def test_interrupted_receive_is_withdrawn(op):
    """A crash under no recovery policy interrupts rank 0 while it
    blocks in a receive. Its receive is withdrawn, so the 4 MiB message
    still in flight lands in the mailbox and a later receive gets it."""
    payload = b"late"

    def main(comm):
        if comm.rank == 0:
            if op == "recv":
                got = yield from comm.recv(source=1, tag=1)
            else:
                got = yield from comm.sendrecv(b"x", dest=1, source=1, tag=1)
            return got
        yield from comm.send(payload, dest=0, tag=1, nbytes=4 << 20)
        return None

    plan = FaultPlan([FaultEvent(t_s=1e-4, kind="node_crash", node=0)])
    job = MPIJob(xt4("SN"), 2, faults=plan)
    with pytest.raises(JobFailedError):
        job.run(main)
    later = job.sim.spawn(job.comms[0].recv(source=1, tag=1))
    job.sim.run()
    assert later.done.value is payload


def test_no_per_tag_state():
    """A job whose ranks receive on 1,000 distinct tags keeps no more
    communicator state than one that uses 10."""

    def pingpong(comm, tags):
        peer = comm.rank ^ 1
        for tag in range(tags):
            if comm.rank == 0:
                yield from comm.send(b"", dest=peer, nbytes=8, tag=tag)
                yield from comm.recv(source=peer, tag=tag)
            else:
                yield from comm.recv(source=peer, tag=tag)
                yield from comm.send(b"", dest=peer, nbytes=8, tag=tag)

    def state_sizes(tags):
        job = MPIJob(xt4("SN"), 2)
        job.run(pingpong, tags)
        return [
            {name: len(value) for name, value in vars(comm).items()
             if isinstance(value, (dict, list))}
            for comm in job.comms
        ]

    assert state_sizes(1000) == state_sizes(10)


def test_sendrecv_resumes_once_when_its_receive_lands_first(monkeypatch):
    # Rank 1's small message reaches rank 0 while rank 0's own large send
    # still holds its route: the matched receive waits for that send's
    # delivery instead of resuming the rank to wait a second time.
    from repro.simengine.process import Process

    steps = {}
    step = Process._step

    def counting_step(self, value, exc=None):
        steps[self.name] = steps.get(self.name, 0) + 1
        return step(self, value, exc)

    monkeypatch.setattr(Process, "_step", counting_step)
    iters = 3

    def main(comm):
        peer = 1 - comm.rank
        nbytes = 1 << 20 if comm.rank == 0 else 8
        got = []
        for i in range(iters):
            got.append((yield from comm.sendrecv(
                (comm.rank, i), dest=peer, tag=i, nbytes=nbytes
            )))
        return got

    result = run(main)
    assert result.returns == [[(1, i) for i in range(iters)],
                              [(0, i) for i in range(iters)]]
    # The first step starts the rank; then one resume per sendrecv.
    assert steps["rank0"] == 1 + iters
