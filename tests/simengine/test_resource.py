"""Tests for Resource (MPI receive matching: tests/mpi/test_mailbox.py)."""
# FIFO grant-order tests use minimal holders without try/finally on
# purpose; no interrupts are in play.
# simlint: ignore-file[SL501]

import pytest

from repro.simengine import Delay, Resource, Simulator


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_single_slot_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="nic")
    spans = []

    def holder(tag):
        yield res.request()
        start = sim.now
        yield Delay(2.0)
        res.release()
        spans.append((tag, start, sim.now))

    for tag in "abc":
        sim.spawn(holder(tag))
    sim.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 4.0), ("c", 4.0, 6.0)]


def test_two_slots_allow_two_concurrent():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    ends = []

    def holder():
        yield res.request()
        yield Delay(1.0)
        res.release()
        ends.append(sim.now)

    for _ in range(4):
        sim.spawn(holder())
    sim.run()
    assert ends == [1.0, 1.0, 2.0, 2.0]


def test_use_helper_releases_on_completion():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        yield from res.use(1.5)

    sim.spawn(holder())
    sim.spawn(holder())
    sim.run()
    assert sim.now == 3.0
    assert res.in_use == 0


def test_release_idle_resource_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_queue_length_reporting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        yield res.request()
        yield Delay(5.0)
        res.release()

    def waiter():
        yield res.request()
        res.release()

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.spawn(waiter())
    seen = []
    sim.schedule(1.0, lambda: seen.append((res.in_use, res.queue_length)))
    sim.run()
    assert seen == [(1, 2)]
    assert res.in_use == 0 and res.queue_length == 0
