"""Exact simulated times of faulted jobs, pinned bit for bit.

``results/ext_resilience.*`` rounds each overhead to a few digits and
averages over seeds, so byte-identical ``results/`` cannot show that a
change to how fault plans are armed, or to how freezes postpone them,
left every crash time unchanged. These values (``float.hex`` of
``elapsed_s`` plus the resilience counters) were recorded while the
injector still pushed its whole plan at ``arm()``; any drift in queue
order or shift arithmetic shows here.
"""

import pytest

from repro.experiments import ext_resilience as er
from repro.faults import FaultEvent, FaultPlan, FaultPolicy, daly_optimal_interval_s
from repro.machine import xt4
from repro.mpi.job import JobFailedError, MPIJob

#: The +x link out of node 0: the only link on the 0 -> 1 route.
LINK_0_PX = ((0, 0, 0), 0, 1)

#: (MTBF as T/n, interval ratio to I*) -> (elapsed_s, restarts,
#: checkpoints, faults_injected) of ext_resilience's job under seed 1.
RESILIENCE_PINS = {
    (4, 0.3): ("0x1.51a66ddbead0fp+2", 3, 74, 3),
    (4, 1.0): ("0x1.1fba74a645e3cp+2", 3, 22, 3),
    (4, 6.0): ("0x1.53e73291b87e1p+2", 3, 3, 3),
    (12, 0.3): ("0x1.b4d84e6bb9ecfp+2", 11, 139, 11),
    (12, 1.0): ("0x1.60e6d0e1ee616p+2", 11, 41, 11),
    (12, 6.0): ("0x1.f230f7a6248a6p+2", 11, 6, 11),
}


@pytest.fixture(scope="module")
def t_solve():
    return er._run_once(FaultPlan([]), None)


def _outcome(plan, policy=None):
    job = MPIJob(xt4("SN"), er.NTASKS, faults=plan, fault_policy=policy)
    r = job.run(er._workload)
    return (r.elapsed_s.hex(), r.restarts, r.checkpoints, r.faults_injected)


@pytest.mark.parametrize("mtbf_div,ratio", sorted(RESILIENCE_PINS))
def test_resilience_jobs_are_pinned(t_solve, mtbf_div, ratio):
    # ext_resilience._sweep's plan and policy for one grid point.
    mtbf = t_solve / mtbf_div
    plan = FaultPlan.sample(
        horizon_s=4.0 * t_solve, num_nodes=er.NTASKS,
        node_mtbf_s=mtbf * er.NTASKS, seed=1,
    )
    policy = FaultPolicy(
        checkpoint_interval_s=ratio * daly_optimal_interval_s(t_solve / 200.0, mtbf),
        checkpoint_cost_s=t_solve / 200.0,
        restart_cost_s=t_solve / 100.0,
        max_restarts=10_000,
    )
    pin = RESILIENCE_PINS[mtbf_div, ratio]
    assert _outcome(plan, policy) == pin
    assert er._run_once(plan, policy).hex() == pin[0]


def _same_time_plan(t, swap):
    noise = [
        FaultEvent(t_s=0.3 * t, kind="os_noise", node=0,
                   duration_s=0.2 * t, factor=3.0),
        FaultEvent(t_s=0.3 * t, kind="os_noise", node=0,
                   duration_s=0.1 * t, factor=1.5),
    ]
    if swap:
        noise.reverse()
    return FaultPlan(noise + [
        FaultEvent(t_s=0.3 * t, kind="node_crash", node=1),
        FaultEvent(t_s=0.6 * t, kind="node_crash", node=0),
    ])


@pytest.mark.parametrize("swap,pin", [
    (False, ("0x1.4aa1a9528ae59p+2", 2, 9, 4)),
    (True, ("0x1.5f155f2d8d33fp+2", 2, 10, 4)),
])
def test_same_time_events_fire_in_plan_order(t_solve, swap, pin):
    # The later of two same-time noise windows on a node wins, so the
    # two orders give different times: each must keep its own.
    policy = FaultPolicy(
        checkpoint_interval_s=t_solve / 8, checkpoint_cost_s=t_solve / 200,
        restart_cost_s=t_solve / 100, degrade_factor=1.25,
    )
    assert _outcome(_same_time_plan(t_solve, swap), policy) == pin


def test_link_down_with_restore_and_nic_stall_are_pinned(t_solve):
    plan = FaultPlan([
        FaultEvent(t_s=0.2 * t_solve, kind="link_down", link=LINK_0_PX,
                   duration_s=0.05 * t_solve),
        FaultEvent(t_s=0.5 * t_solve, kind="nic_stall", node=1,
                   duration_s=0.05 * t_solve),
    ])
    job = MPIJob(xt4("SN"), er.NTASKS, faults=plan)
    r = job.run(er._workload)
    assert r.elapsed_s.hex() == "0x1.ee147329ea981p+1"
    assert (r.faults_injected, r.net_retransmits) == (2, 0)
    assert job.network.faults.nic_stall_waits == 2


def test_crash_without_policy_fails_and_cancels_pending_faults(t_solve):
    job = MPIJob(xt4("SN"), er.NTASKS, faults=FaultPlan([
        FaultEvent(t_s=0.4 * t_solve, kind="node_crash", node=0),
        FaultEvent(t_s=0.7 * t_solve, kind="node_crash", node=1),
        FaultEvent(t_s=2.0 * t_solve, kind="os_noise", node=0,
                   duration_s=t_solve, factor=2.0),
    ]))
    with pytest.raises(JobFailedError, match="no recovery policy"):
        job.run(er._workload)
    # The later faults never fire: the clock stops where the aborted
    # ranks unwound, at the first crash.
    assert job._injector.injected == 1
    assert job.sim.now.hex() == "0x1.7b73f0dee45ccp+0"
    assert len(job.sim._queue) == 0
