"""Deterministic discrete-event simulation kernel.

A minimal, dependency-free engine in the style of SimPy, built for this
project: simulated entities are Python generators ("processes") that yield
*commands* back to the :class:`~repro.simengine.simulator.Simulator`:

* ``Delay(dt)``                — resume after ``dt`` simulated seconds;
* an :class:`~repro.simengine.event.Event` — resume when it is triggered;
* a :class:`~repro.simengine.process.Process` — join (resume on completion);
* ``AllOf([...])`` / ``AnyOf([...])`` — barrier / race combinators;
* a resource request from :class:`~repro.simengine.resource.Resource`.

Determinism: events scheduled for the same timestamp fire in insertion
order (the queue breaks ties with a monotone sequence number), so repeated
runs of the same model produce identical traces.
"""

from repro.simengine.event import AllOf, AnyOf, Delay, Event, Interrupt
from repro.simengine.process import Process, ProcessKilled
from repro.simengine.queue import EventQueue
from repro.simengine.resource import Resource
from repro.simengine.rng import fork, seeded_rng
from repro.simengine.simulator import (
    ResourceLeakError,
    SimDeadlockError,
    Simulator,
)
from repro.simengine.timeout import (
    RetryExhausted,
    SimTimeout,
    retry,
    with_timeout,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Delay",
    "Event",
    "EventQueue",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "Resource",
    "ResourceLeakError",
    "RetryExhausted",
    "SimDeadlockError",
    "SimTimeout",
    "Simulator",
    "fork",
    "retry",
    "seeded_rng",
    "with_timeout",
]
