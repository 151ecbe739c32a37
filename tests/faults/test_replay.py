"""The crash-plan replay, held to the DES it stands in for.

``ext_resilience`` times its faulted jobs with
:func:`repro.faults.replay_elapsed_s`, not with ``MPIJob``. Here every one
of those 72 jobs, and a set of hand-made edge cases, also runs on the
DES. The two agree to ``REL_TOL``; where they disagree, the replay or the
DES is wrong, so never widen it.
"""

from dataclasses import replace

import pytest

from repro.experiments import ext_resilience as er
from repro.faults import FaultEvent, FaultPlan, FaultPolicy, replay_elapsed_s
from repro.mpi.job import JobFailedError

#: Largest relative gap allowed between a replayed and a DES elapsed
#: time. The two add the same freezes in a different order, so they
#: differ only by rounding (2.1e-14 at most over the published jobs).
REL_TOL = 1e-12

#: Dyadic policy terms: every tick and crash time below is exact in
#: binary, so the tie cases really tie.
POLICY = FaultPolicy(
    checkpoint_interval_s=0.5, checkpoint_cost_s=0.125, restart_cost_s=0.25,
)


@pytest.fixture(scope="module")
def t_solve():
    return er._run_once(FaultPlan([]), None)


def _crashes(*times, node=1):
    return FaultPlan(
        [FaultEvent(t_s=t, kind="node_crash", node=node) for t in times]
    )


def _gap(t_solve, plan, policy):
    """Relative gap between the replay and the DES for one job."""
    des = er._run_once(plan, policy)
    return abs(replay_elapsed_s(t_solve, plan, policy) - des) / des


def test_replay_matches_the_des_on_the_published_plans(t_solve):
    jobs = [
        (plan, policy)
        for _mtbf, plans, policies in er._grid(t_solve)
        for policy in policies
        for plan in plans
    ]
    assert len(jobs) == 72
    gaps = [_gap(t_solve, plan, policy) for plan, policy in jobs]
    assert max(gaps) <= REL_TOL, [
        i for i, gap in enumerate(gaps) if gap > REL_TOL
    ]


@pytest.mark.parametrize("case,plan", [
    ("before the first tick", _crashes(0.3)),
    # The second crash lands 0.55 s in, inside the same interval; less
    # the first crash's 0.35 s stall, it loses 0.2 s of work, not 0.55.
    ("two in one interval", _crashes(0.1, 0.2)),
    # Queued by arm() before run() queues the first tick: the crash
    # fires first and loses the whole interval.
    ("on the first tick", _crashes(0.5)),
    # Pushed when the 0.75 crash fires, after the tick at 0.5 pushed
    # its successor: both land at 1.625 and the tick fires first.
    ("on a later tick", _crashes(0.75, 1.0)),
    ("both nodes at once", FaultPlan([
        FaultEvent(t_s=0.3, kind="node_crash", node=0),
        FaultEvent(t_s=0.3, kind="node_crash", node=1),
    ])),
    ("after the job ends", _crashes(100.0)),
])
def test_replay_matches_the_des_on_edge_cases(t_solve, case, plan):
    assert _gap(t_solve, plan, POLICY) <= REL_TOL, case


def test_a_tie_decides_what_is_lost(t_solve):
    # The tie cases are not vacuous: nudging the crash off the tick
    # changes which side of the checkpoint it falls on.
    for plan, nudged in [
        (_crashes(0.5), _crashes(0.5 + 1e-9)),
        (_crashes(0.75, 1.0), _crashes(0.75, 1.0 - 1e-9)),
    ]:
        tie = replay_elapsed_s(t_solve, plan, POLICY)
        off = replay_elapsed_s(t_solve, nudged, POLICY)
        assert abs(tie - off) > 0.1


def test_exhausted_restarts_raise_the_des_error(t_solve):
    policy = replace(POLICY, max_restarts=1)
    plan = FaultPlan([
        FaultEvent(t_s=0.3, kind="node_crash", node=1),
        FaultEvent(t_s=0.9, kind="node_crash", node=0),
    ])
    with pytest.raises(JobFailedError) as des:
        er._run_once(plan, policy)
    with pytest.raises(JobFailedError) as replay:
        replay_elapsed_s(t_solve, plan, policy)
    assert str(replay.value) == str(des.value)
    assert "node 0 crashed after max_restarts=1" in str(des.value)


@pytest.mark.parametrize("event", [
    FaultEvent(t_s=1.0, kind="nic_stall", node=0, duration_s=0.1),
    FaultEvent(t_s=1.0, kind="link_down", link=((0, 0, 0), 0, 1)),
    FaultEvent(t_s=1.0, kind="mem_throttle", node=0, duration_s=0.1,
               factor=2.0),
    FaultEvent(t_s=1.0, kind="os_noise", node=0, duration_s=0.1,
               factor=2.0),
])
def test_replay_refuses_faults_that_change_the_workload(t_solve, event):
    with pytest.raises(ValueError, match=event.kind):
        replay_elapsed_s(t_solve, FaultPlan([event]), POLICY)


def test_replay_refuses_degradation(t_solve):
    policy = replace(POLICY, degrade_factor=2.0)
    with pytest.raises(ValueError, match="degrade_factor"):
        replay_elapsed_s(t_solve, _crashes(0.3), policy)
