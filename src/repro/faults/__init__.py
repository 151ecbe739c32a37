"""Deterministic fault injection and resilience modeling.

The paper's target machine operates at a scale where component failures
are routine; this package lets every simulated layer be exercised under
seeded, bit-reproducible fault schedules:

* :class:`FaultPlan` / :class:`FaultEvent` — the schedule (explicit JSON
  or sampled from per-component MTBF rates);
* :class:`FaultInjector` — executes a plan against a live simulation
  (failing links, stalling NICs, throttling memory, adding OS noise,
  crashing nodes);
* :class:`NodeFaultState` — per-node slowdown multipliers jobs consult;
* :class:`FaultPolicy` / :func:`daly_optimal_interval_s` — coordinated
  checkpoint/restart recovery and its theoretical optimum;
* :func:`replay_elapsed_s` — a crash-only job's elapsed time under a
  policy, replayed without the DES.

Faults are **off by default**: a job with no plan (and none installed)
takes the exact same code paths as before this package existed, so
fault-free runs stay bit-identical.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    KINDS,
    FaultEvent,
    FaultPlan,
    current_plan,
    install_plan,
    installed_plan,
    uninstall_plan,
)
from repro.faults.policy import (
    FaultPolicy,
    daly_optimal_interval_s,
    replay_elapsed_s,
)
from repro.faults.state import NodeFaultState

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPolicy",
    "KINDS",
    "NodeFaultState",
    "current_plan",
    "daly_optimal_interval_s",
    "install_plan",
    "installed_plan",
    "replay_elapsed_s",
    "uninstall_plan",
]
