"""Permutation-invariance: every driver certifies under tie-break shaking.

Each driver is run once first, as ``repro all`` would, so a memoized
sweep (``ext_resilience``'s ``_sweep``) is warm and the certifier has to
defeat it. Then the driver is executed once under the identity
tie-break order and K=4 times under seeded permutations of same-time
event ordering; result rows, obs counter totals, and the DES companion
report must be byte-identical. This is the only place the certifier
runs. The set includes fig12_13 (whose transfer arbitration once
depended on queue order — fixed by keyed transfers in ``Comm.isend``),
fig01's Lustre DES and ``ext_resilience``, whose driver runs one
fault-free DES job and replays its crash plans, and whose DES companion
runs one faulted job with checkpoints and restarts.
"""

import pytest

from repro.core.registry import all_experiments, get_experiment
from repro.simrace.certify import certify_driver


@pytest.mark.parametrize("exp_id", all_experiments())
def test_driver_is_schedule_invariant(exp_id):
    get_experiment(exp_id)()
    divergence = certify_driver(exp_id, k=4)
    assert divergence is None, (
        f"{exp_id} diverges under tie-break permutation: {divergence}"
    )
