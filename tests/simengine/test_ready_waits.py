"""Waits that are already satisfied resume the process in a loop.

A process that yields a triggered event (a finished process's ``done``
among them) is resumed without a callback round trip, so long runs of
such waits must not grow the stack.
"""

from repro.simengine import Simulator


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
