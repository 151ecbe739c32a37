"""Low-overhead wall-clock attribution of simulator execution.

# simlint: ignore-file[SL201] — this module *is* the wall-clock
# instrument: every ``perf_counter_ns`` read here measures the host cost
# of the engine, never simulated time.

The :class:`EngineProfiler` answers "where does the *host's* wall time
go while the discrete-event engine runs?" — the question the ROADMAP-1
hot-path rewrite must be able to answer before touching anything. It is
the simulator-of-the-simulator instrument in the sense of Cornebize &
Legrand's calibration loop: you cannot make a simulator faithful *and*
fast without profiling the simulator itself.

Attribution model (contiguous-mark self-time accounting):

* The engine run loop (``Simulator.run``) calls
  :meth:`begin_event` / :meth:`end_event` around every dispatched queue
  entry. The gap between two events — heap pop, peek, loop bookkeeping —
  is attributed to the ``engine.queue`` phase, so **every nanosecond
  between the first and last mark of a run is attributed somewhere**
  (the ≥95%-named-subsystems property is structural, not statistical).
* Instrumented engine internals (resource arbitration, store put/get,
  event wake fan-out, queue pushes) bracket themselves with
  :meth:`push_phase` / :meth:`pop_phase`; self time splits exactly at
  the probe boundaries, like a sampling profiler with perfect samples.
* Each queue entry carries an optional ``(kind, owner)`` **label** set
  by its creation site (process step, delay wakeup, scheduled callback)
  — only when a profiler is attached, so unprofiled runs never build
  labels. The scheduling-parent bookkeeping added for the simrace work
  (``entry.parent``) links every event to the event that scheduled it,
  which yields collapsed **ancestry stacks** (flamegraph.pl-compatible)
  and a parent→child edge table.

Cost discipline: with no profiler attached (the default), the engine
pays exactly one ``is None`` check per instrumentation site — the same
contract as the obs tracer. With a profiler attached, each event costs
two ``perf_counter_ns`` reads plus a handful of dict operations.

Process-global installation mirrors the tracer: :func:`install_profiler`
/ :func:`installed_profiler` make a profiler reach simulators
constructed deep inside experiment drivers (the ``repro perf record``
path).
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.prof.metrics import POW2_BUCKETS, MetricsRegistry

__all__ = [
    "EngineProfiler",
    "current_profiler",
    "install_profiler",
    "installed_profiler",
    "uninstall_profiler",
]

#: Collapse owner names into stable groups: ``rank17`` → ``rank*``,
#: ``xfer 3->5`` → ``xfer *->*`` — attribution wants the *site*, not the
#: instance, and bounded-cardinality keys keep profiles small.
_DIGITS = re.compile(r"\d+")

#: Ancestry stacks deeper than this reuse the parent's path (the chain
#: is already self-recursive by then; flamegraphs stay readable).
_MAX_STACK_SEGMENTS = 24


def _normalize(owner: str) -> str:
    return _DIGITS.sub("*", owner)


class EngineProfiler:
    """Collects engine wall-time attribution and sim-time metrics.

    All ``*_ns`` aggregates are host-clock nanoseconds and therefore
    vary run to run; everything under :attr:`metrics` and
    :meth:`deterministic_dict` is a function of the simulation alone and
    is byte-stable (tested in ``tests/prof/test_determinism.py``).
    """

    def __init__(self, queue_sample_every: int = 64) -> None:
        #: phase → self nanoseconds (``engine.queue``, ``proc.delay``,
        #: ``resource.request``, ...). Sums to the engine wall time.
        self.phase_self_ns: Dict[str, int] = {}
        #: collapsed stack path → self nanoseconds (flamegraph input).
        self.stack_self_ns: Dict[str, int] = {}
        #: event kind → (inclusive ns, count).
        self.kind_ns: Dict[str, int] = {}
        self.kind_counts: Dict[str, int] = {}
        #: ``kind:owner`` site → (inclusive ns, count).
        self.site_ns: Dict[str, int] = {}
        self.site_counts: Dict[str, int] = {}
        #: ``parent_site -> child_site`` scheduling edge → (ns, count).
        self.edge_ns: Dict[str, int] = {}
        self.edge_counts: Dict[str, int] = {}
        #: total wall ns spent inside ``Simulator.run`` loops.
        self.run_wall_ns = 0
        self.events = 0
        self.sims = 0
        self.runs = 0
        self.cancels = 0
        self.metrics = MetricsRegistry()
        self.queue_sample_every = int(queue_sample_every)

        self._h_depth = self.metrics.histogram(
            "engine.queue.depth", POW2_BUCKETS
        )
        self._h_ready = self.metrics.histogram(
            "engine.ready_set.size", POW2_BUCKETS
        )
        self._depth_series = self.metrics.time_series("engine.queue.depth")
        # -- live state ----------------------------------------------------
        self._mark = 0  # last attributed host timestamp
        self._frames: List[List[Any]] = []  # [phase, path]
        self._event_meta: List[Tuple[str, str, int]] = []  # (kind, site, t0)
        self._outside_probes = 0
        self._run_t0: Optional[int] = None
        self._path_of_seq: Dict[int, str] = {}
        self._site_of_seq: Dict[int, str] = {}
        self._norm_cache: Dict[str, str] = {}
        self._batch_time: Optional[float] = None
        self._batch_size = 0
        self._pop_count = 0

    # -- attribution core --------------------------------------------------
    def _advance(self, now: int, phase: str, path: str) -> None:
        d = now - self._mark
        if d > 0:
            acc = self.phase_self_ns
            acc[phase] = acc.get(phase, 0) + d
            acc = self.stack_self_ns
            acc[path] = acc.get(path, 0) + d
        self._mark = now

    # -- run-loop hooks ----------------------------------------------------
    def begin_run(self) -> None:
        """Called by the profiled run loop on entry."""
        now = perf_counter_ns()
        self._run_t0 = now
        self._mark = now
        self.runs += 1

    def end_run(self) -> None:
        """Called by the profiled run loop on exit (always; ``finally``)."""
        now = perf_counter_ns()
        if self._frames:  # an event raised out of the loop: unwind frames
            while self._frames:
                phase, path = self._frames.pop()
                self._advance(now, phase, path)
            self._event_meta.clear()
        else:
            self._advance(now, "engine.queue", "engine.queue")
        if self._run_t0 is not None:
            self.run_wall_ns += now - self._run_t0
            self._run_t0 = None

    def begin_event(self, entry: Any, queue_depth: int) -> None:
        """Attribute the inter-event gap to ``engine.queue`` and open the
        dispatched entry's frame (labelled by its creation site, stacked
        by its scheduling parent)."""
        now = perf_counter_ns()
        self._advance(now, "engine.queue", "engine.queue")
        label = entry.label
        if label is None:
            kind, owner = "engine.callback", "<anonymous>"
        else:
            kind, owner = label
        norm = self._norm_cache.get(owner)
        if norm is None:
            norm = self._norm_cache[owner] = _normalize(owner)
        site = f"{kind}:{norm}" if norm else kind
        parent_path = self._path_of_seq.get(entry.parent)
        if parent_path is None:
            path = site
        elif parent_path == site or parent_path.endswith(";" + site):
            path = parent_path  # self-recursion: collapse
        elif parent_path.count(";") + 2 > _MAX_STACK_SEGMENTS:
            path = parent_path  # depth cap: stop extending
        else:
            path = parent_path + ";" + site
        self._path_of_seq[entry.seq] = path
        parent_site = self._site_of_seq.get(entry.parent, "<external>")
        self._site_of_seq[entry.seq] = site
        edge = f"{parent_site} -> {site}"
        self.edge_counts[edge] = self.edge_counts.get(edge, 0) + 1
        self._pending_edge = edge
        self._frames.append([kind, path])
        self._event_meta.append((kind, site, now))
        self.events += 1
        # -- sim-time metrics (deterministic) ------------------------------
        t = entry.time
        if t != self._batch_time:
            if self._batch_time is not None:
                self._h_ready.observe(self._batch_size)
            self._batch_time = t
            self._batch_size = 1
        else:
            self._batch_size += 1
        self._pop_count += 1
        if self._pop_count % self.queue_sample_every == 0:
            self._depth_series.record(t, float(queue_depth))

    def end_event(self) -> None:
        """Close the current event frame and charge its inclusive time."""
        now = perf_counter_ns()
        phase, path = self._frames.pop()
        self._advance(now, phase, path)
        kind, site, t0 = self._event_meta.pop()
        incl = now - t0
        self.kind_ns[kind] = self.kind_ns.get(kind, 0) + incl
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        self.site_ns[site] = self.site_ns.get(site, 0) + incl
        self.site_counts[site] = self.site_counts.get(site, 0) + 1
        edge = self._pending_edge
        if edge is not None:
            self.edge_ns[edge] = self.edge_ns.get(edge, 0) + incl
            self._pending_edge = None

    _pending_edge: Optional[str] = None

    # -- inner-subsystem probes -------------------------------------------
    def push_phase(self, phase: str) -> None:
        """Open a nested engine-subsystem frame (resource arbitration,
        store ops, event wake fan-out, queue push). No-op outside an
        event frame — setup work before ``run()`` is not engine time."""
        if not self._frames:
            self._outside_probes += 1
            return
        now = perf_counter_ns()
        top = self._frames[-1]
        self._advance(now, top[0], top[1])
        self._frames.append([phase, top[1] + ";" + phase])

    def pop_phase(self) -> None:
        if self._outside_probes:
            self._outside_probes -= 1
            return
        now = perf_counter_ns()
        phase, path = self._frames.pop()
        self._advance(now, phase, path)

    # -- queue hooks -------------------------------------------------------
    def note_push(self, queue_len: int) -> None:
        """Called by ``EventQueue.push``: depth histogram (deterministic)."""
        self._h_depth.observe(queue_len)

    def note_cancel(self) -> None:
        """Called by ``EventQueue.cancel``: counts lazy cancellations."""
        self.cancels += 1

    def attach_sim(self) -> None:
        self.sims += 1

    # -- finalize ----------------------------------------------------------
    def finalize(self, tracer: Optional[object] = None) -> None:
        """Flush batch metrics and derive tracer-based metrics.

        Safe to call more than once; ``tracer`` (when given) contributes
        per-link utilization gauges from its ``net.link[*].busy_s``
        counters.
        """
        if self._batch_time is not None:
            self._h_ready.observe(self._batch_size)
            self._batch_time = None
            self._batch_size = 0
        self.metrics.fill_link_utilization(tracer)

    # -- views -------------------------------------------------------------
    @property
    def attributed_ns(self) -> int:
        """Nanoseconds attributed to named phases (= sum of self times)."""
        return sum(self.phase_self_ns.values())

    def deterministic_dict(self) -> dict:
        """The schedule-determined projection of this profile.

        Everything here — kind/site/edge counts, stack paths, event and
        simulator totals — depends only on the simulation, never on the
        host clock, so it is byte-identical across repeated runs of a
        deterministic driver.
        """
        return {
            "events": self.events,
            "sims": self.sims,
            "runs": self.runs,
            "cancels": self.cancels,
            "kind_counts": dict(sorted(self.kind_counts.items())),
            "site_counts": dict(sorted(self.site_counts.items())),
            "edge_counts": dict(sorted(self.edge_counts.items())),
            "stack_paths": sorted(self.stack_self_ns),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EngineProfiler {self.events} events, "
            f"{self.run_wall_ns / 1e6:.2f} ms engine>"
        )


#: Process-wide installed profiler (``None`` = profiling off). Simulators
#: constructed without an explicit ``profile=`` fall back to this — how
#: ``repro perf record`` and ``repro all --profile`` reach simulations
#: created deep inside experiment drivers.
_CURRENT: Optional[EngineProfiler] = None


def current_profiler() -> Optional[EngineProfiler]:
    """The installed profiler, or ``None`` when profiling is off."""
    return _CURRENT


def install_profiler(profiler: EngineProfiler) -> EngineProfiler:
    """Install ``profiler`` as the fallback for new simulators."""
    global _CURRENT
    _CURRENT = profiler
    return profiler


def uninstall_profiler() -> None:
    """Remove the installed profiler (new simulators stop profiling)."""
    global _CURRENT
    _CURRENT = None


@contextmanager
def installed_profiler(
    profiler: Optional[EngineProfiler] = None,
) -> Iterator[EngineProfiler]:
    """Install a profiler for a ``with`` block (fresh one if not given);
    always restores the previously-installed profiler on exit."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = profiler if profiler is not None else EngineProfiler()
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous
