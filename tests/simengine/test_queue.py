"""Unit tests for the pending-event queue, drained by ``Simulator.run``
(the queue's only consumer)."""

from hypothesis import given, strategies as st

from repro.simengine import Simulator
from repro.simengine.queue import EventQueue


def _fired(sim, out, label):
    """A callback recording ``(time, label)`` when the run loop fires it."""
    return lambda: out.append((sim.now, label))


def test_empty_queue_is_falsy():
    q = EventQueue()
    assert not q
    assert len(q) == 0


def test_orders_by_time():
    sim = Simulator()
    out = []
    sim.schedule_at(3.0, _fired(sim, out, "c"))
    sim.schedule_at(1.0, _fired(sim, out, "a"))
    sim.schedule_at(2.0, _fired(sim, out, "b"))
    sim.run()
    assert out == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_fifo_among_equal_times():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule_at(5.0, _fired(sim, out, i))
    sim.run()
    assert out == [(5.0, i) for i in range(10)]


def test_cancel_skips_entry():
    sim = Simulator()
    out = []
    sim.schedule_at(1.0, _fired(sim, out, "keep"))
    drop = sim.schedule_at(0.5, _fired(sim, out, "drop"))
    sim.cancel(drop)
    assert len(sim._queue) == 1
    # The cancelled head neither fires nor moves the clock.
    assert sim.run() == 1.0
    assert out == [(1.0, "keep")]
    assert not sim._queue


def test_cancel_twice_is_idempotent():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    q.cancel(e)
    q.cancel(e)
    assert len(q) == 0


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=200))
def test_pop_order_is_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule_at(t, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False), st.booleans()),
        max_size=100,
    )
)
def test_cancellation_property(entries):
    """Live count and firing sequence respect cancellations."""
    sim = Simulator()
    fired = []
    handles = [
        (sim.schedule_at(t, lambda: fired.append(sim.now)), t, cancel)
        for t, cancel in entries
    ]
    expected = sorted(t for _, t, cancel in handles if not cancel)
    for h, _, cancel in handles:
        if cancel:
            sim.cancel(h)
    assert len(sim._queue) == len(expected)
    sim.run()
    assert fired == expected
    assert not sim._queue
