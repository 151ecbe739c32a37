"""Interrupt edge cases and the global freeze.

An interrupt can land while a process is queued on a port, sleeping
on a delay, mid-transfer, or already finished — every case must leave the
engine's bookkeeping exact (no leaked slots, no stale wakeups, no
stretched clock). These are the failure modes the fault-injection layer
leans on.
"""
# Holders here deliberately omit try/finally: interrupt delivery into
# a bare hold is exactly what these tests exercise.
# simlint: ignore-file[SL501]

import pytest

from repro.faults import FaultEvent, FaultPlan
from repro.machine import xt4
from repro.mpi import MPIJob
from repro.mpi.job import JobFailedError
from repro.network.simnet import SimNetwork
from repro.simengine import Delay, Interrupt, Simulator


def _port():
    """A sanitizing simulator, its network, and one of its ports."""
    sim = Simulator(sanitize=True)
    net = SimNetwork(sim, xt4("SN"))
    return sim, net, net.nic_tx(0)


# -- interrupt while queued on a port ----------------------------------------

def test_interrupt_while_queued_on_resource_does_not_leak_slots():
    """The queued grant is abandoned: the slot later goes to someone else
    and no port is left held."""
    sim, net, port = _port()
    order = []

    def holder():
        yield port.request()
        try:
            yield Delay(2.0)
        finally:
            port.release()
        order.append("holder")

    def victim():
        try:
            yield port.request()
            pytest.fail("victim should have been interrupted while queued")
        except Interrupt:
            order.append("victim-interrupted")

    def straggler():
        yield Delay(1.5)
        yield port.request()
        try:
            order.append(f"straggler-granted@{sim.now}")
        finally:
            port.release()

    sim.spawn(holder(), name="holder")
    victim_proc = sim.spawn(victim(), name="victim")
    sim.spawn(straggler(), name="straggler")

    def interrupter():
        yield Delay(1.0)
        victim_proc.interrupt("fault")

    sim.spawn(interrupter(), name="interrupter")
    sim.run()
    # release() hands the slot to the waiter synchronously, so the
    # straggler's grant lands before the holder's own epilogue runs.
    assert order == ["victim-interrupted", "straggler-granted@2.0", "holder"]
    assert net.held_ports() == []


def test_only_queued_waits_carry_an_abandon_hook():
    """An immediate grant can never be abandoned, so it carries no hook;
    a queued requester does, and interrupting it while queued still
    withdraws it: the port goes idle when the holder lets go.
    (Receives: tests/mpi/test_mailbox.py.)"""
    sim, net, port = _port()

    def holder():
        grant = port.request()
        assert grant.triggered and grant._abandon_cb is None
        yield grant
        try:
            yield Delay(2.0)
        finally:
            port.release()

    def victim():
        grant = port.request()
        assert grant._abandon_cb is not None
        try:
            yield grant
        except Interrupt:
            pass

    sim.spawn(holder(), name="holder")
    vproc = sim.spawn(victim(), name="victim")

    def interrupter():
        yield Delay(1.0)
        vproc.interrupt("fault")

    sim.spawn(interrupter(), name="interrupter")
    sim.run()
    assert net.held_ports() == []


def test_interrupt_while_holding_slot_releases_via_finally():
    sim, net, port = _port()

    def holder():
        yield port.request()
        try:
            yield Delay(10.0)
        except Interrupt:
            pass
        finally:
            port.release()

    proc = sim.spawn(holder(), name="holder")

    def interrupter():
        yield Delay(1.0)
        proc.interrupt()

    sim.spawn(interrupter(), name="interrupter")
    sim.run()
    assert sim.now == 1.0 and net.held_ports() == []


# -- interrupt during a delay -------------------------------------------------

def test_interrupt_during_delay_resumes_immediately_and_cancels_timer():
    """The process handles the Interrupt at the interrupt time, and the
    abandoned sleep does not keep the clock running to its original end."""
    sim = Simulator()
    seen = {}

    def sleeper():
        try:
            yield Delay(100.0)
        except Interrupt as exc:
            seen["t"] = sim.now
            seen["cause"] = exc.cause
        yield Delay(1.0)

    proc = sim.spawn(sleeper(), name="sleeper")

    def interrupter():
        yield Delay(3.0)
        proc.interrupt("node-crash")

    sim.spawn(interrupter(), name="interrupter")
    end = sim.run()
    assert seen == {"t": 3.0, "cause": "node-crash"}
    # 3.0 (interrupt) + 1.0 (follow-up delay); NOT 100.0: the stale timer
    # entry was cancelled when the interrupt diverted the process.
    assert end == 4.0


def test_stale_delay_wakeup_does_not_double_resume():
    """After an interrupt diverts the process into a new wait, the old
    delay's pending wakeup is cancelled — the process steps once per
    wait, and the dead sleep does not stretch the run."""
    sim = Simulator()
    steps = []

    def worker():
        try:
            yield Delay(5.0)
            steps.append("long-done")
        except Interrupt:
            steps.append(f"interrupted@{sim.now}")
        yield Delay(5.0)
        steps.append(f"second-done@{sim.now}")

    proc = sim.spawn(worker(), name="worker")

    def interrupter():
        yield Delay(2.0)  # diverts the worker mid-sleep
        proc.interrupt()

    sim.spawn(interrupter(), name="interrupter")
    end = sim.run()
    assert steps == ["interrupted@2.0", "second-done@7.0"]
    assert end == 7.0  # not 5.0+: the original sleep entry is gone


def test_stale_event_wakeup_is_dropped_by_epoch_guard():
    """An event the process was diverted away from may still trigger
    later; its callback must not double-resume the process."""
    sim = Simulator()
    evt = None
    steps = []

    def worker():
        nonlocal evt
        evt = sim.event(name="signal")
        try:
            yield evt
            steps.append("signalled")
        except Interrupt:
            steps.append(f"interrupted@{sim.now}")
        yield Delay(2.0)
        steps.append(f"done@{sim.now}")

    proc = sim.spawn(worker(), name="worker")

    def interrupter():
        yield Delay(1.0)
        proc.interrupt()
        # The event fires anyway, *after* the interrupt diverts the
        # worker (FIFO at the same timestamp): the stale callback must be
        # swallowed, not resume the worker a second time.
        sim.schedule(0.0, lambda: evt.succeed("late"))  # simlint: ignore[SL901] — one-shot test callback

    sim.spawn(interrupter(), name="interrupter")
    end = sim.run()
    assert steps == ["interrupted@1.0", "done@3.0"]
    assert end == 3.0


# -- interrupt of finished processes ---------------------------------

def test_interrupt_of_finished_process_is_a_noop():
    sim = Simulator()

    def quick():
        yield Delay(1.0)
        return 42

    proc = sim.spawn(quick(), name="quick")
    sim.run()
    assert not proc.alive and proc.done.value == 42
    proc.interrupt("too late")  # must not raise or reanimate
    sim.run()
    assert proc.done.value == 42  # a failed done would carry no value


def test_interrupt_scheduled_before_natural_finish_at_same_time():
    """An interrupt queued at the same timestamp the process finishes:
    whichever fires first wins, the other is ignored — never an error."""
    sim = Simulator()

    def quick():
        yield Delay(1.0)
        return "ok"

    proc = sim.spawn(quick(), name="quick")

    def interrupter():
        yield Delay(1.0)
        proc.interrupt()

    sim.spawn(interrupter(), name="interrupter")
    sim.run()
    assert not proc.alive


# -- interrupt while waiting on a receive -------------------------------------

def test_interrupt_while_waiting_on_store_does_not_eat_messages():
    """A rank interrupted in a blocking receive (its job aborted by a
    crash) withdraws the receive, so a message delivered later goes to
    the next live receive instead of vanishing into a dead process."""
    def main(comm):
        if comm.rank == 0:
            got = yield from comm.recv(source=1)
            return got
        yield from comm.compute(1e9)  # still computing at the crash
        return None

    plan = FaultPlan([FaultEvent(t_s=1e-4, kind="node_crash", node=1)])
    job = MPIJob(xt4("SN"), 2, faults=plan)
    with pytest.raises(JobFailedError):
        job.run(main)
    got = []

    def survivor():
        msg = yield from job.comms[0].recv(source=1)
        got.append(msg)

    job.sim.spawn(survivor(), name="survivor")
    job.sim.spawn(job.comms[1].send("payload", dest=0), name="late sender")
    job.sim.run()
    assert got == ["payload"]


# -- freeze ------------------------------------------------------------------

def test_freeze_postpones_everything_uniformly():
    sim = Simulator()
    times = {}

    def worker(name, dt):
        yield Delay(dt)
        times[name] = sim.now

    sim.spawn(worker("a", 1.0), name="a")
    sim.spawn(worker("b", 2.0), name="b")
    sim.schedule(0.5, lambda: sim.freeze(10.0))
    sim.schedule(0.7, lambda: sim.freeze(0.0))
    sim.run()
    assert times == {"a": 11.0, "b": 12.0}
    assert sim.freeze_log == [10.0]  # a zero freeze is not logged


def test_freeze_preserves_fifo_tie_order():
    sim = Simulator()
    order = []

    def worker(tag):
        yield Delay(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.spawn(worker(tag), name=tag)
    sim.schedule(0.5, lambda: sim.freeze(3.0))
    sim.run()
    assert order == ["first", "second", "third"]


def test_freeze_rejects_negative():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.freeze(-1.0)
