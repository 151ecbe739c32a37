"""Interrupt-safe critical sections for on-disk state.

The result cache builds each entry's bytes off to the side, then
publishes them with a single atomic step (``os.replace``). The one hole
left is the operator's Ctrl-C landing *inside* the critical section:
CPython raises ``KeyboardInterrupt`` at an arbitrary bytecode boundary,
which can abandon a temp file between the write and the replace.

:func:`defer_sigint` closes that hole. Inside the block SIGINT is
parked; on exit the previous handler is restored and, if a signal
arrived meanwhile, it is delivered — so the interrupt is *deferred*,
never lost. The window is a few milliseconds of JSON serialization, so
interactivity is unaffected.

Worker threads and exotic embeddings cannot (and need not) install
signal handlers; there the context manager is a no-op and the caller
falls back on the atomic-publish discipline alone.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["defer_sigint"]


@contextmanager
def defer_sigint() -> Iterator[None]:
    """Hold SIGINT for the duration of the block, then deliver it.

    Re-entrant: a nested block simply keeps the outer parking handler.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    received = []

    def _park(signum, frame):  # pragma: no cover - trivial
        received.append((signum, frame))

    try:
        previous = signal.signal(signal.SIGINT, _park)
    except ValueError:  # non-main interpreter thread
        yield
        return
    if previous is _park:  # nested defer_sigint: outer block owns delivery
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
        if received:
            if callable(previous) and previous not in (
                signal.SIG_DFL, signal.SIG_IGN
            ):
                previous(*received[0])
            else:
                raise KeyboardInterrupt
