"""The zero-dependency tracing core: spans, counters, and the installed
tracer.

A :class:`Tracer` collects two kinds of telemetry from a simulation run:

* **spans** — named intervals of simulated time on a *track* (one track
  per rank, sending node, Lustre server, ...), optionally tagged with
  arguments (``src``/``dst``/``bytes`` on a network transfer);
* **counters** — named time series following the
  ``layer.object.metric`` naming scheme (``net.link[0,0,0.+x].bytes``,
  ``machine.mem[node0].bw_GBs``), written as deltas
  (:meth:`Counter.add`) and read back as their running sum.

Tracing is strictly opt-in. A :class:`~repro.simengine.Simulator` built
without a tracer (and with none :func:`install`-ed) records nothing and
pays only a handful of ``is None`` checks. Timestamps are simulated
seconds supplied by the instrumentation sites — this module never reads
a clock of its own, so traces are deterministic by construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Span",
    "Tracer",
    "current_tracer",
    "install",
    "installed",
    "uninstall",
]


class Span:
    """One named interval of simulated time on a track.

    ``t1`` is ``None`` while the span is still open (ended spans are the
    norm; exporters close stragglers at the trace's end time).
    """

    def __init__(
        self,
        track: str,
        name: str,
        t0: float,
        t1: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.track = track
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.args = {} if args is None else args

    @property
    def duration_s(self) -> float:
        """Span length in simulated seconds (0 while still open)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0


class Counter:
    """A named time series accumulated from ``(t, delta)`` writes.

    The exported series is the running sum in time order, so
    out-of-order deltas — a transfer posting its future completion — are
    handled correctly.
    """

    __slots__ = ("name", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[Tuple[float, float]] = []  # (t, delta)

    def add(self, t: float, delta: float) -> None:
        """Accumulate ``delta`` at simulated time ``t``."""
        self._samples.append((float(t), float(delta)))

    def __len__(self) -> int:
        return len(self._samples)

    def series(self) -> List[Tuple[float, float]]:
        """The counter as a time-ordered ``[(t, value), ...]`` series:
        each point carries the running sum of all deltas up to and
        including that time. Ties in time keep write order (the sort is
        stable).
        """
        out: List[Tuple[float, float]] = []
        running = 0.0
        for t, delta in sorted(self._samples, key=itemgetter(0)):
            running += delta
            out.append((t, running))
        return out

    @property
    def total(self) -> float:
        """The sum of all deltas (0.0 before any write)."""
        return float(sum(delta for _t, delta in self._samples))


class Tracer:
    """Collects spans and counters from an instrumented simulation.

    :param meta: free-form metadata embedded in exported traces (the
        experiment id, machine name, seed, ...).
    """

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.meta: Dict[str, Any] = dict(meta or {})
        self.spans: List[Span] = []
        self.counters: Dict[str, Counter] = {}

    # -- spans ------------------------------------------------------------
    def begin(self, track: str, name: str, t: float, **args: Any) -> Span:
        """Open a span at time ``t``; close it later with :meth:`end`."""
        span = Span(track=track, name=name, t0=float(t), args=dict(args))
        self.spans.append(span)
        return span

    def end(self, span: Span, t: float, **args: Any) -> Span:
        """Close ``span`` at time ``t``, merging any extra ``args``."""
        if span.t1 is not None:
            raise ValueError(f"span {span.name!r} already ended")
        if t < span.t0:
            raise ValueError(
                f"span {span.name!r} cannot end at {t} before start {span.t0}"
            )
        span.t1 = float(t)
        if args:
            span.args.update(args)
        return span

    def complete(
        self, track: str, name: str, t0: float, t1: float, **args: Any
    ) -> Span:
        """Record an already-finished span ``[t0, t1]`` in one call."""
        span = self.begin(track, name, t0, **args)
        return self.end(span, t1)

    def instant(self, track: str, name: str, t: float, **args: Any) -> Span:
        """Record a zero-duration marker at time ``t`` (e.g. a fault
        injection). Exported like any other complete span."""
        return self.complete(track, name, float(t), float(t), **args)

    @contextmanager
    def span(self, track: str, name: str, clock, **args: Any) -> Iterator[Span]:
        """Context manager spanning the enclosed block.

        ``clock`` is a zero-argument callable returning the current
        simulated time (``lambda: sim.now``) — the tracer itself never
        owns a clock.
        """
        s = self.begin(track, name, clock(), **args)
        try:
            yield s
        finally:
            self.end(s, clock())

    def close_open_spans(self, t: float) -> int:
        """Close every still-open span at time ``t``; returns the count.

        Called by exporters so that processes still alive when a run
        stops (a failed or deadlocked job) render with their true extent.
        """
        n = 0
        for span in self.spans:
            if span.t1 is None:
                span.t1 = float(t)
                n += 1
        return n

    # -- counters ---------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def add(self, name: str, t: float, delta: float) -> None:
        """Shorthand for ``counter(name).add(t, delta)``."""
        self.counter(name).add(t, delta)

    # -- introspection ----------------------------------------------------
    def counter_totals(self, prefix: str = "") -> Dict[str, float]:
        """``{name: total}`` for every counter, optionally filtered.

        ``total`` is the sum of a counter's deltas. Handy
        for summarising a run — e.g. the experiment runner's
        ``runner.cache.*`` hit/miss counters — without exporting a
        full trace.
        """
        return {
            name: c.total
            for name, c in sorted(self.counters.items())
            if name.startswith(prefix)
        }

    @property
    def end_time(self) -> float:
        """Latest timestamp seen across spans and counters (0.0 if empty)."""
        t = 0.0
        for span in self.spans:
            t = max(t, span.t0 if span.t1 is None else span.t1)
        for c in self.counters.values():
            if len(c):
                t = max(t, max(s[0] for s in c._samples))
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer {len(self.spans)} spans, "
            f"{len(self.counters)} counters>"
        )


#: The process-wide installed tracer (``None`` = tracing off). Simulators
#: constructed without an explicit ``tracer=`` fall back to this, which is
#: how ``--trace`` flags reach simulations created deep inside experiment
#: drivers.
_CURRENT: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off."""
    return _CURRENT


def install(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the fallback for new simulators."""
    global _CURRENT
    _CURRENT = tracer
    return tracer


def uninstall() -> None:
    """Remove the installed tracer (new simulators stop tracing)."""
    global _CURRENT
    _CURRENT = None


@contextmanager
def installed(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of a ``with`` block.

    Yields the tracer (a fresh one when none is given); always restores
    the previously-installed tracer on exit.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer if tracer is not None else Tracer()
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous
