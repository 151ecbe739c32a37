"""Integration tests for the Simulator run loop and processes."""

import pytest

from repro.simengine import Delay, Interrupt, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_run_to_quiescence_with_no_events():
    sim = Simulator()
    assert sim.run() == 0.0


def test_schedule_callback_advances_clock():
    sim = Simulator()
    hits = []
    sim.schedule(2.5, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [2.5]
    assert sim.now == 2.5


def test_schedule_at_fires_at_the_given_time_bit_for_bit():
    # now + (t - now) rounds away from t here, so schedule(t - now)
    # would miss it by an ulp.
    now, t = 54.141247279349656, 206.68174964614397
    assert now + (t - now) != t
    sim = Simulator()
    hits = []
    sim.schedule(now, lambda: sim.schedule_at(t, lambda: hits.append(sim.now)))
    sim.run()
    assert hits == [t]
    with pytest.raises(ValueError, match="before now"):
        sim.schedule_at(t - 1.0, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        Delay(-0.1)


def test_simple_process_return_value():
    sim = Simulator()

    def worker():
        yield Delay(1.5)
        return 42

    proc = sim.spawn(worker())
    sim.run()
    assert proc.done.triggered
    assert proc.done.value == 42
    assert sim.now == 1.5


def test_process_join():
    sim = Simulator()
    trace = []

    def child():
        yield Delay(3.0)
        return "child-result"

    def parent():
        c = sim.spawn(child())
        result = yield c.done
        trace.append((sim.now, result))
        return result

    p = sim.spawn(parent())
    sim.run()
    assert trace == [(3.0, "child-result")]
    assert p.done.value == "child-result"


def test_yield_from_composition():
    sim = Simulator()

    def inner():
        yield Delay(1.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    p = sim.spawn(outer())
    sim.run()
    assert p.done.value == 20
    assert sim.now == 2.0


def test_event_wait_and_value_delivery():
    sim = Simulator()
    evt = sim.event("signal")
    got = []

    def waiter():
        value = yield evt
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.schedule(5.0, lambda: evt.succeed("payload"))
    sim.run()
    assert got == [(5.0, "payload")]


def test_wait_on_already_triggered_event_resumes_immediately():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(7)
    got = []

    def waiter():
        v = yield evt
        got.append((sim.now, v))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0.0, 7)]


def test_event_double_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    evt.succeed()
    with pytest.raises(RuntimeError):
        evt.succeed()


def test_event_failure_propagates_into_process():
    sim = Simulator()
    evt = sim.event()
    caught = []

    def waiter():
        try:
            yield evt
        except ValueError as e:
            caught.append(str(e))

    sim.spawn(waiter())
    sim.schedule(1.0, lambda: evt.fail(ValueError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_interrupt_delivers_cause():
    sim = Simulator()
    out = []

    def sleeper():
        try:
            yield Delay(100.0)
        except Interrupt as i:
            out.append((sim.now, i.cause))

    p = sim.spawn(sleeper())
    sim.schedule(1.0, lambda: p.interrupt("wakeup"))
    sim.run()
    assert out == [(1.0, "wakeup")]


def test_same_time_processes_run_in_spawn_order():
    sim = Simulator()
    trace = []

    def worker(tag):
        trace.append(tag)
        yield Delay(1.0)
        trace.append(tag)

    for tag in "abc":
        sim.spawn(worker(tag))
    sim.run()
    assert trace == ["a", "b", "c", "a", "b", "c"]


def test_max_events_guard():
    sim = Simulator()

    def forever():
        while True:
            yield Delay(1.0)

    sim.spawn(forever())
    with pytest.raises(RuntimeError):
        sim.run(max_events=100)


def test_unsupported_yield_type_raises():
    sim = Simulator()

    def bad():
        yield 123

    sim.spawn(bad())
    with pytest.raises(TypeError):
        sim.run()


def _idle():
    yield Delay(1.0)


@pytest.mark.parametrize(
    "make",
    [lambda sim: sim.spawn(_idle()), lambda sim: None, lambda sim: []],
    ids=["process", "none", "list"],
)
def test_yielding_anything_but_a_delay_or_event_raises(make):
    """A process waits on a Delay or an Event, nothing else (a join
    yields ``proc.done``); the error names the offending process."""
    sim = Simulator()

    def bad():
        yield make(sim)

    sim.spawn(bad(), name="offender")
    with pytest.raises(TypeError, match="process 'offender' yielded"):
        sim.run()


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        trace = []

        def worker(tag, dt):
            for _ in range(3):
                yield Delay(dt)
                trace.append((sim.now, tag))

        sim.spawn(worker("x", 1.0))
        sim.spawn(worker("y", 1.0))
        sim.spawn(worker("z", 0.5))
        sim.run()
        return trace

    assert build() == build()
