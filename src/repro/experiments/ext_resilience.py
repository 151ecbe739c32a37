"""Extension study: checkpoint/restart resilience vs Daly's optimum.

At the petascale size the paper targets, component failures become
routine: the machine's MTBF shrinks inversely with its part count, so a
capability job must checkpoint — and the checkpoint interval is a
first-order performance knob. This study runs a fixed compute/sendrecv
workload under seeded node-crash plans (:mod:`repro.faults`) with
coordinated checkpoint/restart recovery, sweeping system MTBF × interval,
and validates the simulated optimum against Daly's first-order formula
``I* = sqrt(2 C M) − C`` (:func:`repro.faults.daly_optimal_interval_s`).

Each curve plots total overhead (checkpoints + lost work + restarts, as
a % of the fault-free solve time) against ``interval / I*``, so theory
says every curve should bottom out near x = 1. Each point is a mean over
the crash-plan seeds; the ``seed min`` and ``seed max`` series show its
spread, which is wider than the gaps between neighbouring means
(docs/RESILIENCE.md).

Only the fault-free solve runs on the DES. A crash and a checkpoint
both freeze the whole job, so each faulted job's elapsed time follows
from that solve time, its crash plan and its policy
(:func:`repro.faults.replay_elapsed_s`); ``tests/faults/test_replay.py``
runs all 72 on the DES and holds the replay to them. The DES companion
(``repro run ext_resilience --trace``) still runs one faulted job.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.faults import (
    FaultPlan,
    FaultPolicy,
    daly_optimal_interval_s,
    replay_elapsed_s,
)
from repro.machine.configs import xt4
from repro.mpi import MPIJob

NTASKS = 2
ITERS = 120
#: Swept checkpoint intervals, as multiples of the Daly optimum I*.
RATIOS = (0.3, 0.6, 1.0, 1.8, 3.2, 6.0)
#: System MTBFs as fractions of the fault-free solve time (an "unreliable"
#: and a "very unreliable" machine; both >> checkpoint cost).
MTBF_FRACTIONS = (1 / 4, 1 / 12)
#: Crash-plan seeds averaged per grid point.
SEEDS = tuple(range(1, 7))

#: (mtbf_s, mean, min, max overhead % per ratio), min and max over SEEDS.
Curve = Tuple[float, List[float], List[float], List[float]]


def _workload(comm, iters=ITERS):
    """Compute + neighbour exchange loop (the usual mini-app skeleton)."""
    acc = 0.0
    for i in range(iters):
        yield from comm.compute(flops=2.0e7, profile="fft")
        peer = comm.rank ^ 1
        acc += yield from comm.sendrecv(float(i), dest=peer, source=peer)
    total = yield from comm.allreduce(acc, op="sum")
    return total


def _run_once(plan: FaultPlan, policy) -> float:
    job = MPIJob(xt4("SN"), ntasks=NTASKS, faults=plan, fault_policy=policy)
    return job.run(_workload).elapsed_s


def _plan(t_solve: float, mtbf: float, seed: int) -> FaultPlan:
    """A seeded node-crash plan at system MTBF ``mtbf``."""
    return FaultPlan.sample(
        horizon_s=4.0 * t_solve,
        num_nodes=NTASKS,
        node_mtbf_s=mtbf * NTASKS,  # aggregate rate = 1/mtbf
        seed=seed,
    )


def _policy(t_solve: float, mtbf: float, ratio: float) -> FaultPolicy:
    """Checkpoint every ``ratio`` Daly optima, C = T/200, R = T/100."""
    ckpt_cost = t_solve / 200.0
    return FaultPolicy(
        checkpoint_interval_s=ratio * daly_optimal_interval_s(ckpt_cost, mtbf),
        checkpoint_cost_s=ckpt_cost,
        restart_cost_s=t_solve / 100.0,
        max_restarts=10_000,
    )


def _grid(
    t_solve: float,
) -> Iterator[Tuple[float, List[FaultPlan], List[FaultPolicy]]]:
    """Per MTBF: (mtbf, one crash plan per seed, one policy per ratio).

    A crash plan depends on the MTBF and the seed only: every interval
    ratio replays the same plans.
    """
    for frac in MTBF_FRACTIONS:
        mtbf = t_solve * frac
        plans = [_plan(t_solve, mtbf, seed) for seed in SEEDS]
        yield mtbf, plans, [_policy(t_solve, mtbf, r) for r in RATIOS]


@lru_cache(maxsize=1)
def _sweep() -> Tuple[float, Tuple[Curve, ...]]:
    """(T_solve, (curve per MTBF, ...)) — cached so the reproduce and
    render passes do not re-simulate. Only the fault-free solve runs on
    the DES; every faulted job is replayed."""
    # Fault-free baseline; the explicit empty plan shields the run from
    # any process-globally installed plan (repro run --faults).
    t_solve = _run_once(FaultPlan([]), None)
    curves = []
    for mtbf, plans, policies in _grid(t_solve):
        overheads, lows, highs = [], [], []
        for policy in policies:
            times = [replay_elapsed_s(t_solve, plan, policy) for plan in plans]
            mean = sum(times) / len(times)
            overheads.append(100.0 * (mean - t_solve) / t_solve)
            lows.append(100.0 * (min(times) - t_solve) / t_solve)
            highs.append(100.0 * (max(times) - t_solve) / t_solve)
        curves.append((mtbf, overheads, lows, highs))
    return t_solve, tuple(curves)


@register("ext_resilience")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_resilience",
        title="Extension: checkpoint interval vs Daly optimum under node crashes",
        xlabel="checkpoint interval / Daly optimum I*",
        ylabel="resilience overhead (% of fault-free solve time)",
    )
    t_solve, curves = _sweep()
    for (mtbf, overheads, lows, highs), frac in zip(curves, MTBF_FRACTIONS):
        label = f"MTBF = T/{round(1 / frac)}"
        result.add(label, list(RATIOS), overheads)
        result.add(f"{label} seed min", list(RATIOS), lows)
        result.add(f"{label} seed max", list(RATIOS), highs)
    result.notes = (
        f"XT4-SN, {NTASKS} ranks, {ITERS} compute+sendrecv iterations; "
        f"fault-free solve T = {t_solve:.4g}s, checkpoint cost C = T/200, "
        f"restart cost R = T/100; node crashes sampled from exponential "
        f"MTBF over {len(SEEDS)} seeds; each curve is the seed mean, and its "
        f"'seed min' and 'seed max' series give the spread over the seeds. "
        f"Daly: I* = sqrt(2CM) - C."
    )
    return result


def des_companion() -> str:
    """One traced faulted run, for ``repro run ext_resilience --trace``.

    Uses the installed ``--faults`` plan when one is given, else samples
    a crash plan; either way the trace shows fault instants, checkpoint
    freezes and restart stalls on the ``faults``/``job`` tracks.
    """
    from repro.faults import current_plan

    t_solve = _run_once(FaultPlan([]), None)
    mtbf = t_solve * MTBF_FRACTIONS[0]
    plan = current_plan()
    if plan is None or not len(plan):
        plan = _plan(t_solve, mtbf, SEEDS[0])
    policy = _policy(t_solve, mtbf, 1.0)
    job = MPIJob(xt4("SN"), ntasks=NTASKS, faults=plan, fault_policy=policy)
    res = job.run(_workload)
    return (
        f"DES resilience run: fault-free T = {t_solve:.4g}s, faulted "
        f"elapsed = {res.elapsed_s:.4g}s ({res.faults_injected} fault(s) "
        f"injected, {res.restarts} restart(s), {res.checkpoints} "
        f"checkpoint(s), {res.net_retransmits} retransmit(s))"
    )


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("ext_resilience")
    for frac in MTBF_FRACTIONS:
        label = f"MTBF = T/{round(1 / frac)}"
        s = result.get_series(label)
        best = min(s.y)
        at_star = s.value_at(1.0)
        check.expect(
            f"{label}: overhead positive everywhere",
            all(v > 0 for v in s.y),
            f"{[round(v, 2) for v in s.y]}",
        )
        check.expect(
            f"{label}: Daly interval near-optimal (within 15% of best)",
            at_star <= best * 1.15,
            f"overhead at I* = {at_star:.2f}%, grid best = {best:.2f}%",
        )
        check.expect(
            f"{label}: U-shape — too-frequent checkpointing costs more",
            s.y[0] > at_star,
            f"at {RATIOS[0]}I* = {s.y[0]:.2f}%, at I* = {at_star:.2f}%",
        )
        check.expect(
            f"{label}: U-shape — too-rare checkpointing costs more",
            s.y[-1] > at_star,
            f"at {RATIOS[-1]}I* = {s.y[-1]:.2f}%, at I* = {at_star:.2f}%",
        )
    frequent = result.get_series(f"MTBF = T/{round(1 / MTBF_FRACTIONS[1])}")
    rare = result.get_series(f"MTBF = T/{round(1 / MTBF_FRACTIONS[0])}")
    check.expect(
        "less reliable machine pays more at its optimum",
        frequent.value_at(1.0) > rare.value_at(1.0),
        f"T/12: {frequent.value_at(1.0):.2f}% vs T/4: {rare.value_at(1.0):.2f}%",
    )
    return check
