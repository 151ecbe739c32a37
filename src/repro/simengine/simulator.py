"""The simulation clock and run loop."""

from __future__ import annotations

from heapq import heappop
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from repro.simengine.event import Event
from repro.simengine.process import Process
from repro.simengine.queue import EventQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer
    from repro.simengine.resource import Resource


class SimDeadlockError(RuntimeError):
    """Raised by a sanitizing simulator at quiescence while processes
    remain blocked. ``blocked`` maps process name → what it waits on;
    ``now`` is the simulated time of quiescence, so the report can be
    located in an exported trace."""

    def __init__(
        self, blocked: "dict[str, str]", now: Optional[float] = None
    ) -> None:
        self.blocked = dict(blocked)
        self.now = now
        lines = [f"  process {name!r} blocked on {waits}"
                 for name, waits in blocked.items()]
        at = f" at t={now:.9g}s" if now is not None else ""
        super().__init__(
            f"deadlock{at}: event queue empty with "
            f"{len(blocked)} process(es) still blocked:\n" + "\n".join(lines)
        )


class ResourceLeakError(RuntimeError):
    """Raised by a sanitizing simulator when every process has finished
    but a :class:`~repro.simengine.resource.Resource` still holds slots."""


class ScheduleRaceError(RuntimeError):
    """Raised by ``Simulator(sanitize="race")`` when two same-time events
    with no happens-before path touch the same resource/store state.

    Their relative order is then decided by queue tie-breaking alone, so
    the model's results may silently depend on scheduler internals — the
    exact property the hot-path rewrite must preserve. ``state`` names
    the contended object; ``first`` and ``second`` carry both events'
    provenances (seq, scheduling parent, callback)."""

    def __init__(self, state: str, now: float, first: str, second: str) -> None:
        self.state = state
        self.now = now
        self.first = first
        self.second = second
        super().__init__(
            f"schedule race at t={now:.9g}s on {state}:\n"
            f"  {first}\n  {second}\n"
            f"no happens-before path orders these same-time events — their "
            f"relative order is queue tie-breaking. Constrain it (schedule "
            f"key=..., an Event, a Resource hand-off) or make the accesses "
            f"commutative."
        )


class Simulator:
    """Owns the clock and the pending-event queue.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield Delay(1.0)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert sim.now == 1.0 and proc.done.value == "done"

    With ``sanitize=True`` the simulator additionally runs two runtime
    sanitizers at quiescence (both opt-in because they keep per-process /
    per-resource registries):

    * a **deadlock detector** — if the event queue drains while spawned
      processes are still alive, :class:`SimDeadlockError` reports each
      blocked process and the store/resource/event it waits on;
    * a **resource-conservation check** — if every process finished but a
      resource still has slots in use, :class:`ResourceLeakError` names
      the leaking resource (an acquire without a matching release).

    ``sanitize="race"`` additionally turns on the schedule-race detector
    (see :mod:`repro.simrace.hb`): every event records which event
    scheduled it, and two same-time events that touch the same
    resource/store state without a happens-before path raise
    :class:`ScheduleRaceError` naming both provenances.
    """

    def __init__(
        self,
        sanitize: "bool | str" = False,
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        self.now: float = 0.0
        self.sanitize = bool(sanitize)
        if tracer is None:
            # Deferred import: repro.obs is a higher layer; pulling it in
            # eagerly here would create an import cycle.
            from repro.obs.tracer import current_tracer

            tracer = current_tracer()
        #: Attached :class:`~repro.obs.tracer.Tracer`, or ``None`` (the
        #: default — untraced runs pay only ``is None`` checks).
        self.tracer = tracer
        self._queue = EventQueue()
        #: Attached :class:`~repro.simrace.hb.RaceTracker`, or ``None``
        #: (the default — race-free runs pay only ``is None`` checks).
        self.race = None
        if sanitize == "race":
            # Deferred import: repro.simrace is a higher layer.
            from repro.simrace.hb import RaceTracker

            self.race = RaceTracker(self)
        self._running = False
        self._processes: List[Process] = []
        self._resources: "List[Resource]" = []
        self._anon_resources = 0

    def _next_anon_resource(self) -> int:
        """Deterministic sequence number for unnamed traced resources."""
        self._anon_resources += 1
        return self._anon_resources

    # -- construction ------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event` bound to this simulator."""
        return Event(self, name=name)

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "",
        key: Optional[str] = None,
    ) -> Process:
        """Start a new process from generator ``gen``.

        ``key`` pins every wakeup the process schedules to a
        deterministic tie-break rank (see :meth:`schedule`): give
        mutually-racing processes distinct keys and their same-time
        interleaving becomes schedule-invariant.
        """
        return Process(self, gen, name=name, key=key)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        key: Optional[str] = None,
    ) -> Any:
        """Run ``callback()`` after ``delay`` sim-seconds; returns a handle.

        ``key`` pins the callback's order among same-time events (keyed
        events fire first, in lexicographic key order) — use it whenever
        several callbacks land on the same timestamp and their relative
        order matters (``repro race`` finds the ones that do).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, callback, key=key)

    def timeout_event(
        self,
        delay: float,
        value: Any = None,
        name: str = "",
        key: Optional[str] = None,
    ) -> Event:
        """An event that succeeds ``delay`` seconds from now with ``value``."""
        evt = self.event(name=name or f"timeout({delay})")
        self.schedule(delay, lambda: evt.succeed(value), key=key)
        return evt

    def cancel(self, handle: Any) -> None:
        """Cancel a pending callback scheduled with :meth:`schedule`."""
        self._queue.cancel(handle)

    def freeze(self, duration: float) -> None:
        """Pause the whole machine for ``duration`` simulated seconds.

        Every pending event is postponed by ``duration``; the clock itself
        advances when the next (shifted) event fires. This models global
        stop-the-world episodes — a coordinated checkpoint, or the
        rollback-and-redo window after a node crash — without touching any
        individual process. Callbacks scheduled *after* the freeze are not
        shifted.
        """
        if duration < 0:
            raise ValueError(f"negative freeze duration {duration!r}")
        if duration:
            self._queue.shift_all(float(duration))

    # -- sanitizer registries ----------------------------------------------
    def _register_process(self, proc: Process) -> None:
        if self.sanitize:
            self._processes.append(proc)

    def _register_resource(self, resource: "Resource") -> None:
        if self.sanitize:
            self._resources.append(resource)

    def blocked_processes(self) -> "dict[str, str]":
        """Alive registered processes → description of what blocks them
        (sanitize mode only; empty otherwise)."""
        return {
            p.name: p.waiting_on or "<not yet started>"
            for p in self._processes
            if p.alive
        }

    def _check_quiescence(self) -> None:
        blocked = self.blocked_processes()
        if blocked:
            raise SimDeadlockError(blocked, now=self.now)
        leaked = [r for r in self._resources if r.in_use > 0]
        if leaked:
            detail = ", ".join(
                f"{r.name or '<unnamed>'!r} holds {r.in_use}/{r.capacity}"
                for r in leaked
            )
            raise ResourceLeakError(
                f"resource slots leaked at t={self.now:.9g}s after all "
                f"processes finished: {detail}"
            )

    # -- execution -----------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 0) -> float:
        """Drain the event queue.

        :param until: stop once the clock would pass this time (the clock is
            left at ``until``); ``None`` runs to quiescence.
        :param max_events: optional safety valve; raise if more than this
            many events are processed (0 = unlimited).
        :returns: the simulation time at which the run stopped.

        In sanitize mode, reaching quiescence (rather than ``until``) runs
        the deadlock and resource-conservation checks.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not re-entrant")
        self._running = True
        processed = 0
        # Hot loop: the queue internals are inlined (single cancelled
        # scan per pop, native tuple comparisons, local bindings) — this
        # loop dominates every DES workload (des_fault_free in
        # BENCHMARK.json).
        queue = self._queue
        heap = queue._heap
        pop = heappop
        race = self.race
        try:
            while queue._live:
                entry = heap[0][5]
                if entry.cancelled:
                    pop(heap)
                    continue
                time = entry.time
                if until is not None and time > until:
                    self.now = until
                    return until
                pop(heap)
                # Mark consumed so a late cancel() on this handle (a fault
                # injector sweeping its list at job end) is a no-op.
                entry.cancelled = True
                queue._live -= 1
                queue._current_seq = entry.seq
                if time > self.now:
                    self.now = time
                elif time < self.now - 1e-15:
                    raise RuntimeError(
                        f"time went backwards: {time} < {self.now}"
                    )
                if race is not None:
                    race.begin_event(entry)
                entry.callback()
                processed += 1
                if max_events and processed > max_events:
                    raise RuntimeError(f"exceeded max_events={max_events}")
            if self.sanitize and until is None:
                # A full run drained the queue: nothing in-sim can ever
                # unblock a still-waiting process. (Bounded runs skip the
                # check — the caller may trigger events externally.)
                self._check_quiescence()
            if until is not None:
                self.now = max(self.now, until)
            return self.now
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Simulator t={self.now:.9g} pending={len(self._queue)}>"
