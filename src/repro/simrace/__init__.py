"""simrace: schedule-race detection for the DES core.

``repro race`` (:mod:`repro.simrace.cli`) re-executes drivers under
seeded permutations of the event queue's tie-breaking
(:mod:`repro.simrace.permute`) and certifies their published results
schedule-invariant (:mod:`repro.simrace.certify`). ``--format sarif``
reports each divergent driver under rule ``SL850``
(:mod:`repro.simrace.formats`).

See ``docs/DETERMINISM.md`` for the model and the certificate format.
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
