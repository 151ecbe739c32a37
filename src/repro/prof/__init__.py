"""Self-profiling for the simulator: engine-time attribution + metrics.

Where :mod:`repro.obs` answers "where does *simulated* time go?", this
package answers "where does the *host's wall-clock* time go while the
engine runs?" — the instrument the ROADMAP hot-path rewrite is judged
against. Two coordinated halves:

* :class:`EngineProfiler` — low-overhead wall-clock attribution per
  event kind, per callsite (scheduling parent from the simrace
  bookkeeping) and per engine subsystem (queue ops, wait/wake, resource
  arbitration, store traffic), attached via ``Simulator(profile=...)``
  or process-wide with :func:`install_profiler` / :func:`installed_profiler`.
  Off by default: unprofiled runs pay only ``is None`` checks.
* a sim-time :class:`~repro.prof.metrics.MetricsRegistry` — fixed-bucket
  histograms (event-queue depth, ready-set size), gauges (link
  utilization) and sampled series riding the obs counter plumbing; its
  artifacts are byte-deterministic.

Artifacts (``repro perf record`` / ``repro all --profile DIR``): a JSON
profile, a ``flamegraph.pl``-compatible collapsed-stack file and a
metrics JSON per experiment. ``repro perf summary|flame|diff`` analyse
them; ``benchmarks/compare.py`` ingests per-phase timings for the
schema-2 regression baseline. See docs/OBSERVABILITY.md ("Profiling the
engine").
"""

from repro.prof.export import (
    PROFILE_SCHEMA,
    load_profile,
    profile_dict,
    write_artifacts,
    write_folded,
    write_profile,
)
from repro.prof.metrics import POW2_BUCKETS, Gauge, Histogram, MetricsRegistry
from repro.prof.profiler import (
    EngineProfiler,
    current_profiler,
    install_profiler,
    installed_profiler,
    uninstall_profiler,
)
from repro.prof.record import RecordOutcome, record_experiment

__all__ = [
    "EngineProfiler",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "POW2_BUCKETS",
    "PROFILE_SCHEMA",
    "RecordOutcome",
    "current_profiler",
    "install_profiler",
    "installed_profiler",
    "load_profile",
    "profile_dict",
    "record_experiment",
    "uninstall_profiler",
    "write_artifacts",
    "write_folded",
    "write_profile",
]
