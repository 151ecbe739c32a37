"""Runtime sanitizers: deadlock detection and network-port conservation."""

import pytest

from repro.machine import xt4
from repro.mpi import MPIJob
from repro.simengine import (
    Delay,
    ResourceLeakError,
    SimDeadlockError,
    Simulator,
)


# -- deadlock detector -------------------------------------------------------

def test_blocked_store_get_is_reported():
    """A rank blocked in a receive no message matches is reported by
    its posted receive, ``inbox[<rank>].get``."""

    def main(comm):
        if comm.rank == 0:
            msg = yield from comm.recv(source=1)  # never sent
            return msg
        return None

    with pytest.raises(SimDeadlockError) as exc:
        MPIJob(xt4("SN"), 2, sanitize=True).run(main)
    assert exc.value.blocked == {"rank0": "inbox[0].get"}
    assert "rank0" in str(exc.value) and "inbox[0].get" in str(exc.value)
    assert "at t=0" in str(exc.value)  # simulated time of the deadlock


def test_deadlock_error_reports_simulated_time():
    sim = Simulator(sanitize=True)
    never = sim.event(name="mailbox.get")

    def consumer():
        yield Delay(2.5)
        msg = yield never
        return msg

    sim.spawn(consumer(), name="consumer")
    with pytest.raises(SimDeadlockError, match="at t=2.5s"):
        sim.run()


def test_mismatched_collective_reports_blocked_ranks_and_stores():
    """Rank 0 skips the allreduce: the sanitizer names every blocked rank
    and what it waits on (the collective rendezvous / rank 0's inbox)."""

    def main(comm):
        if comm.rank == 0:
            data = yield from comm.recv(source=1, tag=99)  # never sent
            return data
        total = yield from comm.allreduce(comm.rank)
        return total

    with pytest.raises(SimDeadlockError) as exc:
        MPIJob(xt4("SN"), 8, sanitize=True).run(main)
    blocked = exc.value.blocked
    assert blocked["rank0"] == "inbox[0].get"
    for rank in range(1, 8):
        assert blocked[f"rank{rank}"] == "coll:allreduce"


def test_unsanitized_job_keeps_generic_deadlock_error():
    def main(comm):
        if comm.rank == 0:
            return None
        yield from comm.barrier()
        return None

    with pytest.raises(RuntimeError, match="job deadlocked"):
        MPIJob(xt4("SN"), 4).run(main)


def test_no_deadlock_error_on_clean_completion():
    def main(comm):
        total = yield from comm.allreduce(1.0)
        yield from comm.barrier()
        return total

    result = MPIJob(xt4("SN"), 4, sanitize=True).run(main)
    assert result.returns == [4.0] * 4


def test_waiting_on_tracks_delay_and_clears():
    sim = Simulator(sanitize=True)

    def sleeper():
        yield Delay(2.0)
        return "ok"

    proc = sim.spawn(sleeper(), name="sleeper")
    seen = []
    sim.schedule(1.0, lambda: seen.append(proc.waiting_on))
    sim.run()
    assert seen == ["Delay(2)"]
    assert proc.waiting_on is None and proc.done.value == "ok"


# -- port conservation ---------------------------------------------------------

def test_leaked_resource_slot_is_reported():
    """A rank that claims its route and never settles it leaves the
    route's ports held: the sanitizing job names each one."""

    def main(comm):
        if comm.rank == 0:
            comm.job.network.claim_idle(0, 1, 8)
        yield Delay(1.0)

    with pytest.raises(
        ResourceLeakError, match=r"at t=1s.*'nic_tx\[0\]'.*'nic_rx\[1\]'"
    ):
        MPIJob(xt4("SN"), 2, sanitize=True).run(main)


# -- mode argument -------------------------------------------------------------

@pytest.mark.parametrize("mode", ["race", 1, None])
def test_sanitize_accepts_only_a_bool(mode):
    with pytest.raises(ValueError, match="sanitize must be True or False"):
        Simulator(sanitize=mode)
