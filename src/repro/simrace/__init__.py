"""simrace: schedule-race detection for the DES core.

* :class:`~repro.simrace.hb.RaceTracker` (attach with
  ``Simulator(sanitize="race")``) tracks the happens-before forest over
  queue entries and raises
  :class:`~repro.simengine.simulator.ScheduleRaceError` when two
  same-time events touch the same resource/store state with no ordering
  path.
* ``repro race`` (:mod:`repro.simrace.cli`) re-executes drivers under
  seeded permutations of the event queue's tie-breaking
  (:mod:`repro.simrace.permute`) and certifies their published results
  schedule-invariant (:mod:`repro.simrace.certify`). ``--format sarif``
  reports each divergent driver under rule ``SL850``
  (:mod:`repro.simrace.formats`).

This module deliberately imports only the light pieces; the engine
imports :mod:`repro.simrace.hb` lazily.

See ``docs/DETERMINISM.md`` for the model and the certificate format.
"""

from repro.simrace.hb import RaceTracker, ScheduleRaceError
from repro.simrace.permute import (
    DEFAULT_SEED,
    permutation_seeds,
    tie_break_permutation,
)

__all__ = [
    "DEFAULT_SEED",
    "RaceTracker",
    "ScheduleRaceError",
    "permutation_seeds",
    "tie_break_permutation",
]
