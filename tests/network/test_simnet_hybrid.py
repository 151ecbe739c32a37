"""Hybrid analytic/DES fast-path equivalence.

``SimNetwork`` prices *uncontended* transfers by the closed-form LogGP
cost as a single scheduled completion (SMPI practice) and falls back to
full DES the moment any shared resource is busy, a tracer or race
tracker needs to observe the holds, or faults are enabled. The contract
is byte-identicality: experiment rows and counter totals must not change
by a single bit between ``hybrid_mode(True)`` and ``hybrid_mode(False)``.
"""

import sys

import pytest

from repro.core.registry import driver_module, get_experiment
from repro.faults import FaultEvent, FaultPlan
from repro.machine.configs import xt4
from repro.mpi.job import MPIJob
from repro.network import simnet
from repro.network.simnet import hybrid_mode
from repro.obs import Tracer


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
    yield from comm.barrier()
    return comm.wtime()


def _run(hybrid, plan=None, tracer=None):
    with hybrid_mode(hybrid):
        job = MPIJob(xt4("SN"), 8, tracer=tracer, faults=plan)
        result = job.run(_mixed_main)
    return job, result


def _snapshot(job, result):
    """Everything a hybrid run could possibly perturb, bit-for-bit."""
    net = job.network
    return {
        "elapsed_s": result.elapsed_s,
        "returns": list(result.returns),
        "transfers_completed": net.transfers_completed,
        "link_bytes": dict(net.link_bytes),
        "link_busy_s": dict(net.link_busy_s),
    }


def test_hybrid_mode_context_manager_restores_default():
    assert simnet._set_hybrid_default(True) is True  # repo default
    with hybrid_mode(False):
        with hybrid_mode(True):
            pass
    job, _ = _run(hybrid=True)
    assert job.network.hybrid is True


def test_hybrid_vs_des_bit_identical_counters_and_results():
    job_fast, res_fast = _run(hybrid=True)
    job_slow, res_slow = _run(hybrid=False)
    assert _snapshot(job_fast, res_fast) == _snapshot(job_slow, res_slow)
    # The fast path actually ran (pingpong legs) AND fell back under
    # contention (simultaneous ring exchange) — both sides exercised.
    assert job_fast.network.fast_transfers > 0
    assert job_fast.network.fast_transfers < job_fast.network.transfers_completed
    assert job_slow.network.fast_transfers == 0


def test_fast_path_disables_itself_under_tracer():
    job, _ = _run(hybrid=True, tracer=Tracer())
    assert job.network.fast_transfers == 0
    assert job.network.transfers_completed > 0


STALL_AT_S = 1e-5
STALL_FOR_S = 2e-4


def test_fast_path_disables_itself_under_faults():
    plan = FaultPlan(
        [FaultEvent(t_s=STALL_AT_S, kind="nic_stall", node=2,
                    duration_s=STALL_FOR_S)]
    )
    job_fast, res_fast = _run(hybrid=True, plan=plan)
    job_slow, res_slow = _run(hybrid=False, plan=plan)
    assert job_fast.network.fast_transfers == 0
    assert job_fast.network.transfers_completed > 0
    assert _snapshot(job_fast, res_fast) == _snapshot(job_slow, res_slow)


def _run_driver(exp_id, hybrid):
    """Run one driver from cold memos; returns its rows and the number of
    transfers that took the fast path."""
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
        return rows, simnet.transfer_totals()[0]
    finally:
        simnet.reset_transfer_totals()


@pytest.mark.parametrize("exp_id", ["fig12_13", "ext_resilience"])
def test_driver_rows_bit_identical_across_hybrid_modes(exp_id):
    fast, fast_transfers = _run_driver(exp_id, True)
    slow, slow_transfers = _run_driver(exp_id, False)
    assert fast == slow
    # The comparison is not vacuous: the fast path fired in hybrid mode.
    assert fast_transfers > 0
    assert slow_transfers == 0


def test_fig22_des_companion_bit_identical_across_hybrid_modes():
    from repro.experiments.fig22_s3d import des_companion

    with hybrid_mode(True):
        fast = des_companion()
    with hybrid_mode(False):
        slow = des_companion()
    assert fast == slow
