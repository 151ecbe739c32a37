"""Waits that are already satisfied resume the process in a loop.

A process that yields a triggered event, a finished process or a decided
``AllOf``/``AnyOf`` is resumed without a callback round trip, so long
runs of such waits must not grow the stack.
"""

import pytest

from repro.simengine import AllOf, AnyOf, Delay, Simulator


def _run(body):
    sim = Simulator()
    proc = sim.spawn(body(sim))
    sim.run()
    return sim, proc


def test_thousands_of_triggered_events_do_not_recurse():
    def body(sim):
        ev = sim.event("ready").succeed(1)
        total = 0
        for _ in range(5000):
            total += yield ev
        return total

    sim, proc = _run(body)
    assert proc.done.value == 5000
    assert sim.now == 0.0


def test_thousands_of_decided_allofs_do_not_recurse():
    def body(sim):
        ev = sim.event("ready").succeed(2)
        total = 0
        for _ in range(2000):
            values = yield AllOf([ev, ev])
            total += sum(values)
        return total

    _, proc = _run(body)
    assert proc.done.value == 8000


def test_thousands_of_decided_anyofs_and_joins_do_not_recurse():
    def child(sim):
        yield Delay(1.0)
        return "joined"

    def body(sim):
        pending = sim.event("never")
        ready = sim.event("ready").succeed("x")
        kid = sim.spawn(child(sim))
        yield Delay(2.0)
        hits = 0
        for _ in range(3000):
            index, value = yield AnyOf([pending, ready])
            hits += index == 1 and value == "x"
            hits += (yield kid) == "joined"
        return hits

    _, proc = _run(body)
    assert proc.done.value == 6000


def test_failed_ready_events_are_thrown_in_a_loop():
    def body(sim):
        bad = sim.event("bad").fail(KeyError("k"))
        caught = 0
        for _ in range(3000):
            try:
                yield bad
            except KeyError:
                caught += 1
        return caught

    _, proc = _run(body)
    assert proc.done.value == 3000


def test_failed_member_of_a_decided_allof_is_thrown():
    def body(sim):
        ok = sim.event("ok").succeed(1)
        bad = sim.event("bad").fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            yield AllOf([ok, bad])
        return "survived"

    _, proc = _run(body)
    assert proc.done.value == "survived"
