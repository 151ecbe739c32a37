"""The network's single-slot ports: FIFO handoff, idle release and a
transfer interrupted in either phase (MPI receive matching:
tests/mpi/test_mailbox.py; an interrupted bare request:
tests/simengine/test_interrupt.py)."""
# FIFO grant-order tests use minimal holders without try/finally on
# purpose; no interrupts are in play.
# simlint: ignore-file[SL501]

import pytest

from repro.machine import xt4
from repro.network.simnet import SimNetwork
from repro.simengine import Delay, Interrupt, Simulator


def _network():
    sim = Simulator(sanitize=True)
    return sim, SimNetwork(sim, xt4("SN"))


def test_single_slot_serializes_holders():
    """A held port is handed to its waiters in request order."""
    sim, net = _network()
    port = net.nic_tx(0)
    spans = []

    def holder(tag):
        yield port.request()
        start = sim.now
        yield Delay(2.0)
        port.release()
        spans.append((tag, start, sim.now))

    for tag in "abc":
        sim.spawn(holder(tag))
    sim.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 4.0), ("c", 4.0, 6.0)]
    assert net.held_ports() == []


def test_release_idle_resource_raises():
    _sim, net = _network()
    with pytest.raises(RuntimeError, match=r"idle port 'nic_rx\[3\]'"):
        net.nic_rx(3).release()


def test_interrupted_carry_is_slot_exact():
    """``carry`` survives an interrupt in either phase, queued or
    holding, without leaking or over-releasing a port."""
    sim, net = _network()
    nbytes = 1.0e6
    outcome = {}

    def transfer(tag):
        try:
            yield from net.carry(0, 1, nbytes)
            outcome[tag] = sim.now
        except Interrupt:
            outcome[tag] = f"interrupted@{sim.now}"

    holder = sim.spawn(transfer("holder"), name="holder")
    queued = sim.spawn(transfer("queued"), name="queued")
    sim.spawn(transfer("straggler"), name="straggler")

    def interrupter():
        yield Delay(1.0e-6)
        queued.interrupt()
        yield Delay(1.0e-6)
        holder.interrupt()

    sim.spawn(interrupter(), name="interrupter")
    sim.run()
    assert outcome["queued"] == "interrupted@1e-06"
    assert outcome["holder"] == "interrupted@2e-06"
    # The straggler takes the route when the holder lets go, for a full hold.
    assert outcome["straggler"] == 2.0e-6 + net.hold_s(nbytes)
    assert net.held_ports() == []
