"""Generator-based simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simengine.event import Delay, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.simengine.simulator import Simulator


def _describe(command: Any) -> str:
    """Deadlock-report description of a wait command (computed lazily —
    the hot path stores the command object and formats only when a
    sanitizer report actually needs the string)."""
    if type(command) is Delay:
        return f"Delay({command.dt:g})"
    return command.name or "<anonymous event>"


class Process:
    """A running simulation activity wrapping a generator.

    The generator yields one of two wait commands and advances when it
    completes: a :class:`~repro.simengine.event.Delay` (resume after
    ``dt`` simulated seconds) or an :class:`~repro.simengine.event.Event`
    (resume with its value when it triggers). Yielding anything else
    raises :class:`TypeError`. To wait for another process, yield its
    :attr:`done` event.
    """

    __slots__ = ("sim", "name", "key", "_gen", "done", "_waiting_cmd",
                 "_waiting_event", "_wait_handle")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Any, Any, Any],
        name: str = "",
        key: Optional[str] = None,
    ) -> None:
        self._bind(sim, gen, name, key)
        # First step happens via the scheduler so that spawn() during a
        # callback cascade preserves deterministic ordering.
        sim._queue.push(sim.now, self._start, key=key)
        sim._register_process(self)

    def _bind(
        self,
        sim: "Simulator",
        gen: Generator[Any, Any, Any],
        name: str,
        key: Optional[str],
    ) -> None:
        """Set up every field; scheduling the first step is the caller's
        job (``__init__`` queues it, ``Simulator._continue`` runs it now)."""
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        #: Optional deterministic tie-break key: every wakeup this process
        #: schedules is pinned to fire in ``str(key)`` order among
        #: same-time keyed entries, ahead of unkeyed ones — immune to
        #: tie-break permutation (see :mod:`repro.simengine.queue`). Give
        #: mutually-racing processes distinct keys to make their
        #: interleaving schedule-invariant.
        self.key = key
        self._gen = gen
        #: Event triggered with the generator's return value on completion.
        self.done: Event = Event(sim, name=f"{self.name}.done")
        #: The command currently suspending this process (None when
        #: runnable/finished); :attr:`waiting_on` formats it on demand.
        self._waiting_cmd: Any = None
        #: The Event currently suspending this process (None when waiting
        #: on a Delay or when runnable). Used to abandon the wait when an
        #: interrupt diverts the process.
        self._waiting_event: Optional[Event] = None
        #: Pending queue entry of a Delay wait, cancelled if an interrupt
        #: diverts the process (so a dead sleep does not keep the
        #: simulation clock running).
        self._wait_handle = None

    # -- public ----------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self.done.triggered

    @property
    def waiting_on(self) -> Optional[str]:
        """Description of the command currently suspending this process
        (an event or resource name), or None when runnable/finished.
        Maintained for the sanitizers' deadlock reports."""
        cmd = self._waiting_cmd
        return None if cmd is None else _describe(cmd)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.alive:
            return
        self.sim._queue.push(
            self.sim.now, lambda: self._throw(Interrupt(cause)), key=self.key
        )

    # -- stepping ---------------------------------------------------------
    def _start(self) -> None:
        """Queue callback for the initial step."""
        self._step(None)

    def _step(self, value: Any, exc: Optional[BaseException] = None) -> None:
        """Resume the generator with ``value`` (or throw ``exc`` into it)
        and run it until it yields a wait that is not yet satisfied.

        An already-triggered event resumes the generator in this loop, not
        through a callback, so a process taking many ready waits in a row
        runs at constant stack depth.
        """
        if self.done._triggered:
            return
        self._waiting_event = None
        self._waiting_cmd = None
        gen = self._gen
        while True:
            try:
                if exc is None:
                    command = gen.send(value)
                else:
                    command = gen.throw(exc)
            except StopIteration as stop:
                self.done.succeed(stop.value)
                return
            except Interrupt as err:
                if exc is None:
                    raise
                # An interrupt thrown in and not handled ends the process.
                self.done.fail(err)
                return
            if type(command) is Delay:
                # Fused delay→resume: the wakeup is this bound method — no
                # per-wait closure. An interrupt that diverts the process
                # *cancels* the queue entry (see ``_throw``), so a fired
                # delay entry is never stale.
                self._waiting_cmd = command
                sim = self.sim
                self._wait_handle = sim._queue.push(
                    sim.now + command.dt, self._resume_wakeup, key=self.key
                )
            elif isinstance(command, Event):
                if command._triggered:
                    value, exc = command._value, command._failure
                    continue
                # Staleness check by identity: ``_waiting_event`` is
                # cleared (and the wait abandoned) whenever the process
                # moves on, and a one-shot pending event can never be
                # waited on twice by the same process — so no per-wait
                # closure.
                self._waiting_cmd = command
                self._waiting_event = command
                command._callbacks.append(self._resume_event_cb)
            else:
                raise TypeError(
                    f"process {self.name!r} yielded {command!r}; a process "
                    "may wait only on a Delay or an Event (to join a "
                    "process, yield its .done)"
                )
            break

    def _throw(self, exc: BaseException) -> None:
        if not self.alive:
            return
        handle, self._wait_handle = self._wait_handle, None
        if handle is not None:
            self.sim._queue.cancel(handle)
        waited, self._waiting_event = self._waiting_event, None
        if waited is not None:
            # The process is diverted away from this wait: tell the
            # producer (a resource's grant queue, a posted MPI receive)
            # that nothing will ever consume the event.
            waited.abandon()
        self._step(None, exc)

    def _resume_wakeup(self) -> None:
        """Wakeup for a Delay wait. No staleness check: the entry is
        cancelled (never fires) when an interrupt diverts the process."""
        self._wait_handle = None
        self._step(None)

    def _resume_event_cb(self, event: Event) -> None:
        """Wakeup for an Event wait (see ``_step``)."""
        if event is not self._waiting_event:
            return  # stale wakeup: the process was interrupted meanwhile
        if event._failure is not None:
            self._throw(event._failure)
        else:
            self._step(event._value)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
