"""Nonblocking-communication request handles."""

from __future__ import annotations

from repro.simengine import Event


class Request:
    """Handle for an in-flight nonblocking operation (mpi4py-style).

    Wait from a rank process with ``result = yield from req.wait()``, or
    poll with :meth:`test`.
    """

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event

    def test(self) -> bool:
        """True once the operation has completed (non-blocking)."""
        return self.event.triggered

    def wait(self):
        """Process-helper: block until complete; returns the op's value."""
        value = yield self.event
        return value

    @staticmethod
    def waitall(requests: "list[Request]"):
        """Process-helper: block until every request completes.

        Returns the list of completion values in request order.
        """
        values = []
        for req in requests:
            values.append((yield req.event))
        return values
