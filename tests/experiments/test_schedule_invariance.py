"""Permutation-invariance: drivers certify under tie-break shaking.

Each driver is executed once under the identity tie-break order and K=4
times under seeded permutations of same-time event ordering; result rows,
obs counter totals, and the DES companion report must be byte-identical.
Every driver but ``ext_resilience`` is certified here (about 1.5 s for
all of them); its 73 faulted jobs take over 10 s at K=4, so the
``race-smoke`` CI job certifies it instead. The set includes fig12_13
(whose transfer arbitration once depended on queue order — fixed by
keyed transfers in ``Comm.isend``) and fig01's Lustre DES.
"""

import pytest

from repro.core.registry import all_experiments
from repro.simrace.certify import certify_driver

SLOW = {"ext_resilience"}
DRIVERS = [exp_id for exp_id in all_experiments() if exp_id not in SLOW]


@pytest.mark.parametrize("exp_id", DRIVERS)
def test_driver_is_schedule_invariant(exp_id):
    cert = certify_driver(exp_id, k=4, cache=None)
    assert cert.schedule_invariant, (
        f"{exp_id} diverges under tie-break permutation: {cert.divergence}"
    )
    assert len(cert.seeds) == 4
