"""Contended resources for the simulation kernel.

``Resource`` models a fixed number of identical service slots with a FIFO
wait queue — we use it for NIC injection ports, memory-controller channels
and the Lustre metadata server. (MPI receive queues are the
communicator's own mailboxes: :class:`repro.mpi.comm.Comm`.)
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

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
                 "_grants", "_releases", "_hold_spans", "_acquire_spans",
                 "_tracer", "_track", "_ctr_queue", "_ctr_in_use",
                 "_grant_name")

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
        # Tracing state (unused when the simulator has no tracer): open
        # hold spans oldest-first, and each queued waiter's acquire span.
        self._hold_spans: Deque[Any] = deque()
        self._acquire_spans: "dict[Event, Any]" = {}
        self._tracer = sim.tracer
        if self._tracer is not None:
            ident = name or f"anon{sim._next_anon_resource()}"
            self._track = f"res/{ident}"
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
        tracer = self._tracer
        if self._in_use < self.capacity:
            self._in_use += 1
            self._grants += 1
            if tracer is not None:
                self._trace_grant(waited_from=None)
            evt.succeed(self)
        else:
            evt.on_abandon(self._abandon_waiter)
            self._waiters.append(evt)
            if tracer is not None:
                now = self.sim.now
                self._acquire_spans[evt] = tracer.begin(
                    self._track, "res.acquire", now
                )
                self._ctr_queue.record(now, len(self._waiters))
        return evt

    def _abandon_waiter(self, evt: Event) -> None:
        """Drop a queued requester whose process was interrupted."""
        try:
            self._waiters.remove(evt)
        except ValueError:  # pragma: no cover - defensive
            return
        tracer = self._tracer
        if tracer is not None:
            now = self.sim.now
            acq = self._acquire_spans.pop(evt, None)
            if acq is not None:
                tracer.end(acq, now)
            self._ctr_queue.record(now, len(self._waiters))

    def _trace_grant(self, waited_from) -> None:
        """Record a slot grant: close the acquire span (if the grantee
        queued), open its hold span, and sample occupancy."""
        tracer = self._tracer
        now = self.sim.now
        if waited_from is not None:
            acq = self._acquire_spans.pop(waited_from, None)
            if acq is not None:
                tracer.end(acq, now)
            self._ctr_queue.record(now, len(self._waiters))
        self._hold_spans.append(
            tracer.begin(self._track, "res.hold", now)
        )
        self._ctr_in_use.record(now, self._in_use)

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
        if tracer is not None and self._hold_spans:
            # Slots are identical, so holds retire oldest-first.
            tracer.end(self._hold_spans.popleft(), self.sim.now)
        if self._waiters:
            # Hand the slot directly to the next waiter: in_use stays put.
            self._grants += 1
            waiter = self._waiters.popleft()
            if tracer is not None:
                self._trace_grant(waited_from=waiter)
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

        Use as ``yield from resource.use(dt)``.
        """
        from repro.simengine.event import Delay

        grant = self.request()
        try:
            yield grant
            yield Delay(hold_time)
        finally:
            # Only release if the slot was actually granted: an interrupt
            # that lands while still queued abandons the request instead.
            if grant.triggered:
                self.release()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
            f" q={len(self._waiters)}>"
        )
