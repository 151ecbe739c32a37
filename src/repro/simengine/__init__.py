"""Deterministic discrete-event simulation kernel.

A minimal, dependency-free engine in the style of SimPy, built for this
project and kept to what its models use: simulated entities are Python
generators ("processes") that yield one of two *wait commands* back to
the :class:`~repro.simengine.simulator.Simulator`:

* ``Delay(dt)``                — resume after ``dt`` simulated seconds;
* an :class:`~repro.simengine.event.Event` — resume when it is triggered
  (a network port grant, a process's ``done``, an MPI receive).

Anything else raises :class:`TypeError`. Besides the waits, the kernel
offers interrupts (:meth:`Process.interrupt`), absolute scheduling
(:meth:`Simulator.schedule_at`) and a global freeze
(:meth:`Simulator.freeze`). A single-slot FIFO server is the model's
own: the network's ports (:mod:`repro.network.simnet`) and the Lustre
servers' busy-until clocks (:mod:`repro.lustre.filesystem`).

Determinism: events scheduled for the same timestamp fire in insertion
order (the queue breaks ties with a monotone sequence number), so repeated
runs of the same model produce identical traces.
"""

from repro.simengine.event import Delay, Event, Interrupt
from repro.simengine.process import Process
from repro.simengine.queue import EventQueue
from repro.simengine.rng import fork, seeded_rng
from repro.simengine.simulator import (
    ResourceLeakError,
    SimDeadlockError,
    Simulator,
)

__all__ = [
    "Delay",
    "Event",
    "EventQueue",
    "Interrupt",
    "Process",
    "ResourceLeakError",
    "SimDeadlockError",
    "Simulator",
    "fork",
    "seeded_rng",
]
