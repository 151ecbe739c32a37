"""Shared sweeps and helpers for the experiment drivers."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.core.experiment import ExperimentResult
from repro.machine.configs import xt3, xt3_dc, xt4, xt3_xt4_combined
from repro.obs import Tracer, installed, write_chrome_trace

#: Processor-count sweep for the global HPCC figures (paper x-axis to ~1200).
GLOBAL_SWEEP: Tuple[int, ...] = (128, 256, 512, 1024)

#: MPI task sweep for CAM (decomposition-legal counts up to the 960 limit).
CAM_SWEEP: Tuple[int, ...] = (64, 128, 256, 504, 672, 960)

#: Task sweep for POP on a single system.
POP_SWEEP: Tuple[int, ...] = (500, 1000, 2500, 5000)

#: Task sweep for POP on the combined XT3/XT4 system.
POP_COMBINED_SWEEP: Tuple[int, ...] = (10000, 16000, 22000)

#: NAMD task sweep (paper Figs 20-21 x-axis).
NAMD_SWEEP: Tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 12000)

#: S3D weak-scaling core counts (paper Fig. 22, log axis 1..10000).
S3D_SWEEP: Tuple[int, ...] = (1, 8, 64, 512, 4096, 12000)


@contextmanager
def faults_from(path: Optional[str]) -> Iterator[Optional[Any]]:
    """Install the fault plan at ``path`` for the duration of the block.

    With ``path=None`` the block runs fault-free and ``None`` is yielded,
    so drivers can pass ``args.faults`` through unconditionally.
    """
    if path is None:
        yield None
        return
    from repro.faults import FaultPlan, installed_plan

    plan = FaultPlan.load(str(path))
    with installed_plan(plan):
        yield plan


@contextmanager
def profiling_to(
    out_dir: Optional[str], exp_id: str
) -> Iterator[Optional[Any]]:
    """Run the block under :class:`cProfile.Profile`; write the host-time
    profile to ``<out_dir>/<exp_id>.pstats`` on exit.

    The file loads with :class:`pstats.Stats` (or ``python -m pstats``).
    With ``out_dir=None`` the block runs unprofiled and ``None`` is
    yielded, so callers can pass a ``--profile`` flag through
    unconditionally.
    """
    if out_dir is None:
        yield None
        return
    import cProfile

    prof = cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()
    prof.dump_stats(f"{out_dir}/{exp_id}.pstats")


@contextmanager
def tracing_to(path: Optional[str], **meta: Any) -> Iterator[Optional[Tracer]]:
    """Install a fresh tracer for the block; write Perfetto JSON on exit.

    ``meta`` (experiment id, machine, seed, ...) is embedded in the
    trace's ``otherData``. With ``path=None`` the block runs untraced and
    ``None`` is yielded, so drivers can pass ``args.trace`` through
    unconditionally.
    """
    if path is None:
        yield None
        return
    tracer = Tracer(meta=dict(meta))
    with installed(tracer):
        yield tracer
    write_chrome_trace(tracer, str(path))


def global_hpcc_series(
    result: ExperimentResult,
    metric: Callable[[object, int], float],
    sweep: Tuple[int, ...] = GLOBAL_SWEEP,
) -> ExperimentResult:
    """Populate the four standard series of Figures 8-11.

    ``metric(machine, ntasks)`` returns the benchmark value for a job of
    ``ntasks`` tasks. Series follow the paper's legend: XT3 and XT4-SN
    indexed by sockets (= cores = tasks), XT4-VN plotted both per core
    (tasks = x) and per socket (tasks = 2x). Each machine is built once.
    """
    m_xt3, sn, vn = xt3(), xt4("SN"), xt4("VN")
    result.add("XT3 (5/06)", list(sweep), [metric(m_xt3, p) for p in sweep])
    result.add("XT4-SN (2/07)", list(sweep), [metric(sn, p) for p in sweep])
    result.add("XT4-VN (cores)", list(sweep), [metric(vn, p) for p in sweep])
    result.add(
        "XT4-VN (sockets)", list(sweep), [metric(vn, 2 * p) for p in sweep]
    )
    return result
