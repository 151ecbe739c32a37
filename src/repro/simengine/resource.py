"""Contended resources for the simulation kernel.

``Resource`` models a fixed number of identical service slots with a FIFO
wait queue — we use it for NIC injection ports, memory-controller channels
and the Lustre metadata server. (MPI receive queues are the
communicator's own mailboxes: :class:`repro.mpi.comm.Comm`.)
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.simengine.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simengine.simulator import Simulator


class Resource:
    """``capacity`` identical slots with FIFO queuing.

    Usage from a process::

        grant = resource.request()
        yield grant            # waits until a slot is free
        ...                    # hold the slot
        resource.release()
    """

    __slots__ = ("sim", "name", "capacity", "_in_use", "_waiters",
                 "_grants", "_releases", "_tracer", "_ctr_queue",
                 "_ctr_in_use", "_grant_name")

    #: Whether a traced run samples this resource's
    #: ``engine.resource[<name>].queue_depth`` / ``.in_use`` counters.
    #: Only a resource that every grant and release passes through
    #: :meth:`request` / :meth:`release` can sample them faithfully.
    sampled = True

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        # Grant-event name, formatted once: request() is the hottest
        # non-engine call in every DES bench.
        self._grant_name = f"{name}.grant"
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self._grants = 0
        self._releases = 0
        self._tracer = sim.tracer if self.sampled else None
        if self._tracer is not None:
            ident = name or f"anon{sim._next_anon_resource()}"
            self._ctr_queue = sim.tracer.counter(
                f"engine.resource[{ident}].queue_depth"
            )
            self._ctr_in_use = sim.tracer.counter(
                f"engine.resource[{ident}].in_use"
            )
        sim._register_resource(self)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that succeeds when a slot is granted.

        If the requester is interrupted while still queued, the grant is
        withdrawn automatically (via the event's abandon hook), so a slot
        is never handed to a process that can no longer consume it.
        """
        evt = Event(self.sim, self._grant_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            self._grants += 1
            if self._tracer is not None:
                self._ctr_in_use.record(self.sim.now, self._in_use)
            evt.succeed(self)
        else:
            evt.on_abandon(self._abandon_waiter)
            self._waiters.append(evt)
            if self._tracer is not None:
                self._ctr_queue.record(self.sim.now, len(self._waiters))
        return evt

    def _abandon_waiter(self, evt: Event) -> None:
        """Drop a queued requester whose process was interrupted."""
        try:
            self._waiters.remove(evt)
        except ValueError:  # pragma: no cover - defensive
            return
        if self._tracer is not None:
            self._ctr_queue.record(self.sim.now, len(self._waiters))

    def release(self) -> None:
        """Free one slot, waking the longest-waiting requester if any.

        Conservation invariants (always checked — they are cheap): a
        release must match an outstanding grant, and occupancy can never
        exceed capacity.
        """
        if self._in_use <= 0:
            raise RuntimeError(f"release() of idle resource {self.name!r}")
        if self._in_use > self.capacity:  # pragma: no cover - defensive
            raise RuntimeError(
                f"resource {self.name!r} over-committed: "
                f"{self._in_use}/{self.capacity}"
            )
        self._releases += 1
        tracer = self._tracer
        if self._waiters:
            # Hand the slot directly to the next waiter: in_use stays put.
            self._grants += 1
            waiter = self._waiters.popleft()
            if tracer is not None:
                now = self.sim.now
                self._ctr_queue.record(now, len(self._waiters))
                self._ctr_in_use.record(now, self._in_use)
            waiter.succeed(self)
        else:
            self._in_use -= 1
            if tracer is not None:
                self._ctr_in_use.record(self.sim.now, self._in_use)

    @property
    def outstanding(self) -> int:
        """Grants not yet matched by a release (sanitizer bookkeeping)."""
        return self._grants - self._releases

    def use(self, hold_time: float):
        """Process-helper: acquire, hold for ``hold_time``, release.

        Use as ``yield from resource.use(dt)``; returns the time the slot
        was granted.
        """
        from repro.simengine.event import Delay

        grant = self.request()
        try:
            yield grant
            granted = self.sim.now
            yield Delay(hold_time)
        finally:
            # Only release if the slot was actually granted: an interrupt
            # that lands while still queued abandons the request instead.
            if grant.triggered:
                self.release()
        return granted

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
            f" q={len(self._waiters)}>"
        )
