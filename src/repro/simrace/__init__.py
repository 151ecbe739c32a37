"""simrace: schedule-race certification for the DES core.

:func:`repro.simrace.certify.certify_driver` re-executes a driver under
seeded permutations of the event queue's tie-breaking
(:mod:`repro.simrace.permute`) and reports the first value that moves.
``tests/experiments/test_schedule_invariance.py`` certifies every
registered driver with it.

See ``docs/DETERMINISM.md`` for the model.
"""

from repro.simrace.permute import (
    DEFAULT_SEED,
    permutation_seeds,
    tie_break_permutation,
)

__all__ = [
    "DEFAULT_SEED",
    "permutation_seeds",
    "tie_break_permutation",
]
