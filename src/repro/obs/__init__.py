"""Unified simulation observability: spans, counters, trace export.

The paper's whole method is attribution — explaining application
behaviour by where simulated time goes and which shared resource (memory
controller, NIC, torus link) saturates. This package makes that data a
first-class output of every simulation:

* :class:`Tracer` — zero-dependency span + counter collection, attached
  via ``Simulator(tracer=...)`` / ``MPIJob(..., tracer=...)`` (or
  process-wide with :func:`install` / :func:`installed`). Off by
  default: untraced runs pay nothing.
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  `Perfetto <https://ui.perfetto.dev>`_; one track per rank, link,
  resource and controller) and :func:`load_trace`, which reads it back.

Perfetto shows self time per span; :func:`repro.mpi.mpi_profiles` folds
a tracer's MPI spans into mpiP-style per-rank profiles. See
docs/OBSERVABILITY.md for the counter naming scheme
(``layer.object.metric``) and a Perfetto walkthrough.
"""

from repro.obs.export import (
    TraceData,
    dumps_chrome_trace,
    load_trace,
    write_chrome_trace,
)
from repro.obs.tracer import (
    Counter,
    Span,
    Tracer,
    current_tracer,
    install,
    installed,
    uninstall,
)

__all__ = [
    "Counter",
    "Span",
    "TraceData",
    "Tracer",
    "current_tracer",
    "dumps_chrome_trace",
    "install",
    "installed",
    "load_trace",
    "uninstall",
    "write_chrome_trace",
]
