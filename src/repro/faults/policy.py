"""Checkpoint/restart recovery policy, Daly's optimal-interval formula,
and a replay of the policy's clock for crash-only plans."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class FaultPolicy:
    """How an :class:`~repro.mpi.job.MPIJob` survives node crashes.

    The job takes a coordinated checkpoint every ``checkpoint_interval_s``
    of simulated time, each costing ``checkpoint_cost_s`` (a global
    stop-the-world pause — every rank stalls). On a node crash the job
    rewinds to its last durable checkpoint: work since that checkpoint is
    lost and redone, plus a ``restart_cost_s`` outage for relaunch and
    checkpoint reload. After ``max_restarts`` crashes the job aborts.

    ``degrade_factor`` (≥ 1) permanently dilates work on the crashed
    node's ranks after recovery — graceful degradation onto surviving
    nodes instead of a same-size replacement.
    """

    checkpoint_interval_s: float
    checkpoint_cost_s: float
    restart_cost_s: float
    max_restarts: int = 16
    degrade_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval_s <= 0:
            raise ValueError(
                f"checkpoint_interval_s must be > 0, got {self.checkpoint_interval_s!r}"
            )
        if self.checkpoint_cost_s < 0:
            raise ValueError(
                f"checkpoint_cost_s must be >= 0, got {self.checkpoint_cost_s!r}"
            )
        if self.restart_cost_s < 0:
            raise ValueError(
                f"restart_cost_s must be >= 0, got {self.restart_cost_s!r}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts!r}"
            )
        if self.degrade_factor < 1.0:
            raise ValueError(
                f"degrade_factor must be >= 1, got {self.degrade_factor!r}"
            )


def daly_optimal_interval_s(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Daly's first-order optimal checkpoint interval.

    For checkpoint cost ``C`` and system MTBF ``M`` (with ``C << M``),
    the compute interval between checkpoints that minimises expected
    wall-clock is approximately ``sqrt(2 C M) - C`` (J. T. Daly, *A
    higher order estimate of the optimum checkpoint interval for restart
    dumps*, FGCS 2006). Used by ``ext_resilience`` to validate the
    simulated optimum against theory.
    """
    if checkpoint_cost_s < 0:
        raise ValueError(f"checkpoint_cost_s must be >= 0, got {checkpoint_cost_s!r}")
    if mtbf_s <= 0:
        raise ValueError(f"mtbf_s must be > 0, got {mtbf_s!r}")
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s) - checkpoint_cost_s


def replay_elapsed_s(
    t_solve: float, plan: FaultPlan, policy: FaultPolicy
) -> float:
    """Elapsed time of an :class:`~repro.mpi.job.MPIJob` under ``plan``
    and ``policy``, computed without the DES.

    A checkpoint and a node crash both act on a job through
    :meth:`~repro.simengine.Simulator.freeze`, which postpones every
    pending event, rank work and later faults alike, by the same amount.
    So the elapsed time of a job whose fault-free solve takes ``t_solve``
    seconds depends only on ``t_solve``, the crash times and the policy.
    This loop walks that clock the way ``MPIJob._checkpoint_tick`` and
    ``MPIJob._on_node_crash`` do:

    * a checkpoint at time ``t`` freezes ``C`` seconds, makes ``t + C``
      durable and schedules the next one at ``t + (C + I)``;
    * a crash at ``t`` loses ``max(0, t - durable - stalled)``, the work
      since the last durable checkpoint less the stalls already spent
      since it, and freezes that plus ``R``;
    * every freeze postpones the later crashes, the next checkpoint and
      the job's end, which starts at ``t_solve``; an event at or after
      the end never fires.

    A crash and a checkpoint at the same time fire in the order the DES
    queued them: the one pushed first, by the earlier event, wins
    (``EventQueue``'s FIFO tie rule). ``tests/faults/test_replay.py``
    holds the replay to ``MPIJob``.

    :raises ValueError: for a fault other than ``node_crash`` or a
        ``degrade_factor`` other than 1. Those change how long the
        workload's own steps take, so only the DES can time them.
    :raises JobFailedError: when a crash finds ``max_restarts`` spent,
        as the DES does.
    """
    times = []  # plan times of the crashes, in firing order
    for ev in plan:
        if ev.kind != "node_crash":
            raise ValueError(
                f"replay_elapsed_s replays node crashes only, got {ev.kind!r}"
            )
        times.append(ev.t_s)
    if policy.degrade_factor != 1.0:
        raise ValueError(
            "replay_elapsed_s cannot replay degrade_factor="
            f"{policy.degrade_factor!r}: degradation dilates the workload"
        )
    n = len(times)
    interval = policy.checkpoint_interval_s
    ckpt_cost = policy.checkpoint_cost_s
    restart_cost = policy.restart_cost_s
    end = t_solve
    shift = 0.0  # freezes so far: the postponement of every plan time
    durable = stalled = 0.0
    restarts = 0
    # Push order, for ties: ``arm()`` queues the first crash group (0)
    # before ``run()`` queues the first tick (1); later, a tick queues
    # the next one and a group's first crash queues the next group, each
    # when it fires (2, 3, ...).
    tick, tick_pushed = interval, 1
    group_pushed = next_group_pushed = 0
    fired = 2
    k = 0
    while True:
        crash = times[k] + shift if k < n else math.inf
        if crash < tick or (crash == tick and group_pushed < tick_pushed):
            if crash >= end:
                return end
            if restarts >= policy.max_restarts:
                from repro.mpi.job import JobFailedError

                raise JobFailedError(
                    f"job failed: node {plan.events[k].node} crashed after "
                    f"max_restarts={policy.max_restarts} recoveries were "
                    "already spent"
                )
            restarts += 1
            lost = max(0.0, crash - durable - stalled)
            stall = lost + restart_cost
            shift += stall
            tick += stall
            end += stall
            stalled += stall
            t_s = times[k]
            if k == 0 or times[k - 1] != t_s:
                next_group_pushed = fired
            k += 1
            if k < n and times[k] != t_s:
                group_pushed = next_group_pushed
        else:
            if tick >= end:
                return end
            shift += ckpt_cost
            end += ckpt_cost
            durable = tick + ckpt_cost
            stalled = 0.0
            tick += ckpt_cost + interval
            tick_pushed = fired
        fired += 1
