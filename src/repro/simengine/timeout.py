"""Timeout and retry process-helpers for the simulation kernel.

Fault-tolerant protocols (SeaStar retransmission, Lustre RPC resends,
MPI eager/rendezvous fallbacks) share two primitives:

* :func:`with_timeout` — wait on an event for at most ``timeout_s``; the
  losing side of the race is cleaned up (the timer is cancelled, or the
  event is :meth:`~repro.simengine.event.Event.abandon`-ed so a queued
  resource grant / posted receive cannot leak);
* :func:`retry` — drive an attempt, and on a retryable failure back off
  deterministically (exponential by default) before trying again.

Both are generator helpers: drive them with ``yield from`` inside a
process body. They introduce no randomness, so faulted runs stay
bit-reproducible.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Callable, Optional, Tuple, Type

from repro.simengine.event import AnyOf, Delay, Event

__all__ = ["RetryExhausted", "SimTimeout", "retry", "with_timeout"]


class SimTimeout(Exception):
    """An awaited simulated operation did not complete within its window."""

    def __init__(self, timeout_s: float, what: str = "") -> None:
        self.timeout_s = float(timeout_s)
        self.what = what
        detail = f" waiting for {what}" if what else ""
        super().__init__(f"timed out after {timeout_s:.9g}s{detail}")


class RetryExhausted(Exception):
    """Every attempt of a :func:`retry` loop failed.

    ``last`` carries the final attempt's exception (also chained as
    ``__cause__``).
    """

    def __init__(self, attempts: int, last: Optional[BaseException]) -> None:
        self.attempts = attempts
        self.last = last
        super().__init__(
            f"all {attempts} attempt(s) failed"
            + (f"; last error: {last}" if last is not None else "")
        )


def with_timeout(sim, event: Event, timeout_s: float, what: str = ""):
    """Process-helper: wait on ``event`` for at most ``timeout_s``.

    Returns ``(True, value)`` if the event triggered in time, else
    ``(False, None)``. On timeout the event is abandoned, so a pending
    resource grant or posted receive is withdrawn rather than leaked; when
    the event wins, the internal timer is cancelled so it cannot stretch
    the run's quiescence time. Use as::

        ok, msg = yield from with_timeout(sim, inbox.get(), 5e-6)
        if not ok:
            ...  # retransmit

    :raises ValueError: on a negative timeout.
    """
    if timeout_s < 0:
        raise ValueError(f"negative timeout {timeout_s!r}")
    timer = sim.event(name=f"timeout({timeout_s:.9g})")
    # Bound method, not a closure: with_timeout is on the retransmission
    # hot path and SL901 bans per-event lambda allocation there.
    handle = sim.schedule(timeout_s, timer.succeed)
    index, value = yield AnyOf([event, timer])
    if index == 0:
        sim.cancel(handle)
        return True, value
    event.abandon()
    return False, None


def retry(
    attempt: Callable[[int], Any],
    *,
    attempts: int = 4,
    base_backoff_s: float = 0.0,
    backoff_factor: float = 2.0,
    retry_on: Tuple[Type[BaseException], ...] = (SimTimeout,),
):
    """Process-helper: run ``attempt(i)`` until it succeeds.

    ``attempt`` receives the zero-based attempt index and either returns
    a value directly or returns a generator helper (which is then driven
    with ``yield from``). An exception in ``retry_on`` triggers a
    deterministic backoff of ``base_backoff_s * backoff_factor**i``
    simulated seconds before the next attempt; any other exception
    propagates immediately.

    :raises RetryExhausted: when the final attempt fails too (the last
        attempt's exception is chained as ``__cause__``).
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts!r}")
    last: Optional[BaseException] = None
    for i in range(attempts):
        try:
            result = attempt(i)
            if isinstance(result, Generator):
                result = yield from result
            return result
        except retry_on as exc:
            last = exc
            if i + 1 < attempts and base_backoff_s > 0.0:
                yield Delay(base_backoff_s * backoff_factor**i)
    raise RetryExhausted(attempts, last) from last
