"""The simulation clock and run loop."""

from __future__ import annotations

from heapq import heappop
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from repro.simengine.event import Event
from repro.simengine.process import Process
from repro.simengine.queue import EventQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer


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
    """Raised by a sanitizing :class:`~repro.mpi.MPIJob` when every
    process has finished but a network port is still held."""


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

    With ``sanitize=True`` the simulator keeps a registry of its
    processes and runs a **deadlock detector** at quiescence: if the
    event queue drains while spawned processes are still alive,
    :class:`SimDeadlockError` reports each blocked process and the event
    it waits on (a receive, a port grant). A sanitizing
    :class:`~repro.mpi.MPIJob` then checks that no network port is still
    held (:class:`ResourceLeakError`).
    """

    def __init__(
        self,
        sanitize: bool = False,
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        self.now: float = 0.0
        if not isinstance(sanitize, bool):
            raise ValueError(
                f"sanitize must be True or False, got {sanitize!r}"
            )
        self.sanitize = sanitize
        if tracer is None:
            # Deferred import: repro.obs is a higher layer; pulling it in
            # eagerly here would create an import cycle.
            from repro.obs.tracer import current_tracer

            tracer = current_tracer()
        #: Attached :class:`~repro.obs.tracer.Tracer`, or ``None`` (the
        #: default — untraced runs pay only ``is None`` checks).
        self.tracer = tracer
        self._queue = EventQueue()
        self.freeze_log: List[float] = []
        self._running = False
        self._processes: List[Process] = []

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

    def _continue(
        self, gen: Generator[Any, Any, Any], name: str, key: Optional[str]
    ) -> Process:
        """Run ``gen``'s first step now, inside the calling callback, as a
        process keyed ``key``.

        Private: it exists for a keyed callback chain that hands its
        remaining work to a generator mid-flight (the MPI transfer
        chain's fall-back to the contended DES path). The chain's own
        queue entry already is the step, so a :meth:`spawn` here would
        add a same-time push that can reorder contended arbitration.
        """
        proc = Process.__new__(Process)
        proc._bind(self, gen, name, key)
        self._register_process(proc)
        proc._step(None)
        return proc

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
        order matters (tier-1's schedule-invariance test finds the ones
        that do).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, callback, key=key)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Any:
        """:meth:`schedule` at an absolute ``time``, for a caller that
        computed it (``now + (time - now)`` need not round to ``time``)."""
        if time < self.now:
            raise ValueError(f"time {time!r} is before now {self.now!r}")
        return self._queue.push(time, callback)

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
        shifted. :attr:`freeze_log` keeps each nonzero duration.
        """
        if duration < 0:
            raise ValueError(f"negative freeze duration {duration!r}")
        if duration:
            self._queue.shift_all(float(duration))
            self.freeze_log.append(float(duration))

    # -- sanitizer registry ------------------------------------------------
    def _register_process(self, proc: Process) -> None:
        if self.sanitize:
            self._processes.append(proc)

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

    # -- execution -----------------------------------------------------------
    def run(self, max_events: int = 0) -> float:
        """Drain the event queue.

        :param max_events: optional safety valve; raise if more than this
            many events are processed (0 = unlimited).
        :returns: the simulation time of quiescence.

        In sanitize mode, quiescence runs the deadlock check.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not re-entrant")
        self._running = True
        processed = 0
        # Hot loop: the queue internals are inlined (single dead-entry
        # scan per pop, native list comparisons, local bindings) — this
        # loop dominates every DES workload (des_fault_free in
        # BENCHMARK.json) and is the queue's only consumer. Heap items
        # are ``[time, group, key, rank1, seq, callback, dead]``; the
        # literal indexes 0, 4, 5 and 6 below are repro.simengine.queue's
        # T, SEQ, CB and DEAD.
        queue = self._queue
        heap = queue._heap
        pop = heappop
        try:
            while queue._live:
                item = pop(heap)
                if item[6]:
                    continue
                # Mark consumed so a late cancel() on this handle (a fault
                # injector sweeping its list at job end) is a no-op.
                item[6] = True
                queue._live -= 1
                queue._current_seq = item[4]
                time = item[0]
                if time > self.now:
                    self.now = time
                elif time < self.now - 1e-15:
                    raise RuntimeError(
                        f"time went backwards: {time} < {self.now}"
                    )
                item[5]()
                processed += 1
                if max_events and processed > max_events:
                    raise RuntimeError(f"exceeded max_events={max_events}")
            if self.sanitize:
                # The queue drained: nothing in-sim can ever unblock a
                # still-waiting process.
                self._check_quiescence()
            return self.now
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Simulator t={self.now:.9g} pending={len(self._queue)}>"
