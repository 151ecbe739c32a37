"""Hybrid analytic/DES fast-path equivalence.

``SimNetwork`` prices *uncontended* transfers by the closed-form LogGP
cost as a single scheduled completion (SMPI practice) and falls back to
full DES the moment any shared resource is busy or a link or NIC fault
has fired (node crashes, memory throttles and OS noise leave the network
on the fast path; so does a tracer). The contract is byte-identicality:
experiment rows, counters and trace spans must not change by a single
bit between ``hybrid_mode(True)`` and ``hybrid_mode(False)``.
"""

import sys

import pytest

from repro.core.registry import driver_module, get_experiment
from repro.experiments import ext_resilience as er
from repro.faults import FaultEvent, FaultPlan, FaultPolicy
from repro.machine.configs import xt4
from repro.mpi.job import MPIJob
from repro.network import simnet
from repro.network.simnet import hybrid_mode
from repro.obs import Tracer, installed
from repro.simrace.permute import permutation_seeds, tie_break_permutation


def _mixed_main(comm):
    """Both traffic shapes: sequential pingpong legs (idle routes — fast
    path eligible) and simultaneous ring exchange (contended — DES)."""
    # Distance-2 neighbours: adjacent ranks' routes share the middle
    # link, so the simultaneous exchange below genuinely contends.
    peer = (comm.rank + 2) % comm.size
    left = (comm.rank - 2) % comm.size
    for i in range(5):
        if comm.rank == 0:
            yield from comm.send(b"p" * 4096, dest=1, nbytes=4096, tag=100 + i)
        elif comm.rank == 1:
            yield from comm.recv(source=0, tag=100 + i)
    for lap in range(2):
        yield from comm.sendrecv(b"r" * 32768, dest=peer, source=left, tag=lap)
    exchanged = comm.wtime()  # before the barrier evens the ranks out
    yield from comm.barrier()
    return exchanged


def _run(hybrid, plan=None, tracer=None, mode="SN"):
    with hybrid_mode(hybrid):
        job = MPIJob(xt4(mode), 8, tracer=tracer, faults=plan)
        result = job.run(_mixed_main)
    return job, result


def _snapshot(job, result):
    """Everything a hybrid run could possibly perturb, bit-for-bit."""
    net = job.network
    faults = net.faults
    return {
        "elapsed_s": result.elapsed_s,
        "rank_times": list(result.rank_times),
        "returns": list(result.returns),
        "transfers_completed": net.transfers_completed,
        "link_bytes": dict(net.link_bytes),
        "link_busy_s": dict(net.link_busy_s),
        "reroutes": faults.reroutes if faults is not None else 0,
        "retransmits": faults.retransmits if faults is not None else 0,
    }


def test_hybrid_mode_context_manager_restores_default():
    assert simnet._set_hybrid_default(True) is True  # repo default
    with hybrid_mode(False):
        with hybrid_mode(True):
            pass
    job, _ = _run(hybrid=True)
    assert job.network.hybrid is True


# VN puts ranks 0 and 1 on one socket, so its pingpong legs are
# intra-node copies, and its latencies are priced from same-time NIC
# activity (the transfer chain's ``start`` step).
@pytest.mark.parametrize("mode", ["SN", "VN"])
def test_hybrid_vs_des_bit_identical_counters_and_results(mode):
    job_fast, res_fast = _run(hybrid=True, mode=mode)
    job_slow, res_slow = _run(hybrid=False, mode=mode)
    assert _snapshot(job_fast, res_fast) == _snapshot(job_slow, res_slow)
    # The fast path actually ran (pingpong legs) AND fell back under
    # contention (simultaneous ring exchange) — both sides exercised.
    assert job_fast.network.fast_transfers > 0
    assert job_fast.network.fast_transfers < job_fast.network.transfers_completed
    assert job_slow.network.fast_transfers == 0
    # Traced, both paths record the same trace, span for span and sample
    # for sample, and the tracer changes no result.
    traces = []
    for hybrid in (True, False):
        tracer = Tracer()
        job, result = _run(hybrid=hybrid, tracer=tracer, mode=mode)
        assert _snapshot(job, result) == _snapshot(job_fast, res_fast)
        traces.append((
            [(s.name, s.track, s.t0, s.t1, s.args) for s in tracer.spans],
            {name: c.series() for name, c in tracer.counters.items()},
        ))
    assert traces[0] == traces[1]
    spans, counters = traces[0]
    assert {"net.xfer", "mpi.send", "mpi.recv", "mpi.sendrecv"} <= {
        s[0] for s in spans
    }
    assert any(name.startswith("net.link[") for name in counters)


def test_untraced_fast_path_is_schedule_invariant():
    # The driver certifier shakes the fast path through whole drivers;
    # this shakes a job mixing fast and contended transfers.
    # The transfers' keys pin VN latency pricing and NIC arbitration.
    identity_job, identity = _run(hybrid=True, mode="VN")
    assert identity_job.network.fast_transfers > 0
    expected = _snapshot(identity_job, identity)
    expected["fast_transfers"] = identity_job.network.fast_transfers
    for seed in permutation_seeds(k=4):
        with tie_break_permutation(seed):
            job, result = _run(hybrid=True, mode="VN")
        shaken = _snapshot(job, result)
        shaken["fast_transfers"] = job.network.fast_transfers
        assert shaken == expected, f"seed {seed}"


def test_fast_path_stays_open_under_tracer():
    untraced, _ = _run(hybrid=True)
    traced, _ = _run(hybrid=True, tracer=Tracer())
    assert traced.network.fast_transfers == untraced.network.fast_transfers
    assert traced.network.fast_transfers > 0


STALL_AT_S = 1e-5
STALL_FOR_S = 2e-4


def test_fast_path_stops_once_a_network_fault_fires():
    plan = FaultPlan(
        [FaultEvent(t_s=STALL_AT_S, kind="nic_stall", node=2,
                    duration_s=STALL_FOR_S)]
    )
    job_fast, res_fast = _run(hybrid=True, plan=plan)
    job_slow, res_slow = _run(hybrid=False, plan=plan)
    # Transfers before the stall take the fast path; from the stall on,
    # the network routes through its fault state.
    net = job_fast.network
    assert 0 < net.fast_transfers < net.transfers_completed
    assert net.faults is not None
    assert _snapshot(job_fast, res_fast) == _snapshot(job_slow, res_slow)


#: The +x link out of node 0: the whole route of the first pingpong leg.
LINK_0_PX = ((0, 0, 0), 0, 1)
LINK_DOWN_AT_S = 1e-6
LINK_DOWN_FOR_S = 2e-5


def test_link_fault_inside_a_fast_transfers_latency_hands_off_mid_flight():
    # The first leg starts at t=0 on a fault-free network, so it runs as
    # a fast-path chain; its route fails before the latency has elapsed,
    # so the chain must continue in the fault-aware DES path (detour).
    assert LINK_DOWN_AT_S < xt4("SN").node.nic.mpi_latency_us * 1e-6
    plan = FaultPlan(
        [FaultEvent(t_s=LINK_DOWN_AT_S, kind="link_down", link=LINK_0_PX,
                    duration_s=LINK_DOWN_FOR_S)]
    )
    job_fast, res_fast = _run(hybrid=True, plan=plan)
    job_slow, res_slow = _run(hybrid=False, plan=plan)
    fast = _snapshot(job_fast, res_fast)
    assert fast == _snapshot(job_slow, res_slow)
    assert fast["reroutes"] + fast["retransmits"] > 0
    assert job_fast.network.fast_transfers == 0


def _crash_main(comm):
    """Compute + 8 MB exchange: each exchange holds its links ~4 ms."""
    peer = comm.rank ^ 1
    for i in range(3):
        yield from comm.compute(flops=2.0e6, profile="fft")
        yield from comm.sendrecv(i, dest=peer, source=peer, nbytes=8 << 20)
    return comm.wtime()


CKPT_EVERY_S = 3e-3
CKPT_COST_S = 1e-4
RESTART_COST_S = 5e-4
CRASH_POLICY = FaultPolicy(
    checkpoint_interval_s=CKPT_EVERY_S,
    checkpoint_cost_s=CKPT_COST_S,
    restart_cost_s=RESTART_COST_S,
)


# The first exchange holds its links from ~3.2 ms to ~7.3 ms fault-free:
# crashes at 4 and 6 ms land mid-hold, the others between holds.
@pytest.mark.parametrize("crash_at_s", [1e-3, 2.5e-3, 4e-3, 6e-3, 9e-3])
def test_node_crash_keeps_the_fast_path_bit_identical(crash_at_s):
    plan = FaultPlan(
        [FaultEvent(t_s=crash_at_s, kind="node_crash", node=1)]
    )
    snapshots = []
    for hybrid in (True, False):
        with hybrid_mode(hybrid):
            job = MPIJob(xt4("SN"), 2, faults=plan, fault_policy=CRASH_POLICY)
            result = job.run(_crash_main)
        net = job.network
        # A crash never touches the network: no fault state is attached.
        assert net.faults is None
        if hybrid:
            assert net.fast_transfers == net.transfers_completed
        snapshots.append((
            result.elapsed_s,
            result.rank_times,
            result.returns,
            result.restarts,
            result.checkpoints,
            net.transfers_completed,
            dict(net.link_busy_s),
        ))
    assert snapshots[0] == snapshots[1]
    assert snapshots[0][3] == 1  # the crash fired and the job restarted


def _run_driver(exp_id, hybrid):
    """Run one driver from cold memos; returns its rows and the
    ``(fast_transfers, transfers_completed)`` totals. Runs under any
    installed tracer."""
    driver = get_experiment(exp_id)
    # Driver sweeps are memoised (``lru_cache``): clear them so the
    # second run simulates again instead of serving the first run's rows.
    module = sys.modules[driver_module(exp_id)]
    for name in dir(module):
        clear = getattr(getattr(module, name), "cache_clear", None)
        if callable(clear):
            clear()
    simnet.reset_transfer_totals()
    try:
        with hybrid_mode(hybrid):
            rows = driver().to_dict()
        return rows, simnet.transfer_totals()
    finally:
        simnet.reset_transfer_totals()


@pytest.mark.parametrize("exp_id", ["fig12_13"])
def test_driver_rows_bit_identical_across_hybrid_modes(exp_id):
    fast, (fast_transfers, transfers) = _run_driver(exp_id, True)
    slow, (slow_transfers, _) = _run_driver(exp_id, False)
    assert fast == slow
    # The comparison is not vacuous: the fast path fired in hybrid mode.
    assert fast_transfers > 0
    assert slow_transfers == 0


@pytest.fixture(scope="module")
def t_solve():
    return er._run_once(FaultPlan([]), None)


def _resilience_jobs(t_solve, hybrid):
    """Run ``ext_resilience``'s 72 faulted jobs on the DES (the driver
    replays them); returns each job's outcome and the ``(fast_transfers,
    transfers_completed)`` totals. Runs under any installed tracer."""
    simnet.reset_transfer_totals()
    try:
        with hybrid_mode(hybrid):
            outcomes = []
            for _mtbf, plans, policies in er._grid(t_solve):
                for policy in policies:
                    for plan in plans:
                        job = MPIJob(xt4("SN"), er.NTASKS, faults=plan,
                                     fault_policy=policy)
                        r = job.run(er._workload)
                        outcomes.append((r.elapsed_s, r.rank_times, r.returns,
                                         r.restarts, r.checkpoints))
        return outcomes, simnet.transfer_totals()
    finally:
        simnet.reset_transfer_totals()


def test_resilience_jobs_bit_identical_across_hybrid_modes(t_solve):
    fast, (fast_transfers, transfers) = _resilience_jobs(t_solve, True)
    slow, (slow_transfers, _) = _resilience_jobs(t_solve, False)
    assert fast == slow
    assert any(restarts for *_, restarts, _checkpoints in fast)
    # Node-crash plans leave the network fault-free: every transfer, in
    # every faulted job, takes the fast path.
    assert fast_transfers == transfers > 0
    assert slow_transfers == 0


def test_traced_sweep_takes_the_shipped_path(t_solve):
    # ``repro run ext_resilience --trace`` traces a faulted job: the
    # installed tracer keeps every transfer on the fast path.
    with installed(Tracer()) as tracer:
        _outcomes, totals = _resilience_jobs(t_solve, True)
    assert totals == (17_280, 17_280)
    assert sum(s.name == "net.xfer" for s in tracer.spans) == 17_280


def test_fig22_des_companion_bit_identical_across_hybrid_modes():
    from repro.experiments.fig22_s3d import des_companion

    with hybrid_mode(True):
        fast = des_companion()
    with hybrid_mode(False):
        slow = des_companion()
    assert fast == slow
