"""The result containers and models on the ``repro all`` path are plain
classes with hand-written ``__init__``s: same parameters, positional
order and defaults as the dataclasses they replaced, validation in
``__init__``, and a fresh collection for every instance."""

import pytest

from repro.apps import AORSAModel, CAMModel, NAMDModel, POPModel, S3DModel
from repro.core.experiment import ExperimentResult, Series
from repro.core.validate import ShapeCheck
from repro.faults import FaultEvent, FaultPlan
from repro.hpcc import (
    BidirectionalBandwidth,
    DGEMMBench,
    FFTBench,
    HPLModel,
    MPIFFTModel,
    MPIRandomAccessModel,
    PingPong,
    PTRANSModel,
    RandomAccessBench,
    RingBenchmark,
    StreamBench,
)
from repro.lustre import IORBenchmark, IORResult
from repro.machine import PLATFORMS, xt4
from repro.mpi import JobResult, MPIProfile
from repro.mpi.profiler import OpStats
from repro.obs import Span, TraceData
from repro.runner import CacheEntry, RunOutcome

SN = xt4("SN")


@pytest.mark.parametrize(
    "make, attrs",
    [
        (lambda: ExperimentResult("fig01", "t"), ("series",)),
        (lambda: ShapeCheck("fig01"), ("checks",)),
        (lambda: Span("rank0", "mpi.send", 0.0), ("args",)),
        (lambda: TraceData(), ("spans", "counters", "meta")),
        (lambda: MPIProfile(0), ("ops", "events")),
        (lambda: FaultPlan(), ("events",)),
    ],
)
def test_each_instance_gets_its_own_collection(make, attrs):
    a, b = make(), make()
    for attr in attrs:
        assert getattr(a, attr) == {} or getattr(a, attr) == []
        assert getattr(a, attr) is not getattr(b, attr), attr


def test_a_collection_passed_in_is_kept():
    series = [Series("a", [1], [2.0])]
    assert ExperimentResult("fig01", "t", series=series).series is series
    args = {"bytes": 8}
    assert Span("rank0", "mpi.send", 0.0, 1.0, args).args is args
    ops = {"send": OpStats(1, 2.0, 3.0)}
    assert MPIProfile(0, ops).ops is ops


def test_the_call_shapes_src_uses():
    result = ExperimentResult(
        "fig01", "t", "x", "y", [Series("a", [1, 2], [3.0, 4.0])], None, "n"
    )
    assert (result.xlabel, result.ylabel, result.notes) == ("x", "y", "n")
    assert result.get_series("a").value_at(2) == 4.0
    outcome = RunOutcome("fig01", result, True, 0.5, True, "k")
    assert (outcome.from_cache, outcome.wall_s, outcome.passed, outcome.key) == (
        True, 0.5, True, "k",
    )
    assert RunOutcome("fig01", result, False, 0.5, False).key is None
    entry = CacheEntry(key="k", exp_id="fig01", wall_s=0.5, passed=True, result=result)
    assert CacheEntry.from_dict(entry.to_dict()).to_dict() == entry.to_dict()
    span = Span(track="rank0", name="mpi.send", t0=1.0, t1=3.0)
    assert (span.duration_s, span.args) == (2.0, {})
    job = JobResult("XT4", "SN", 2, 1.0, [1.0, 1.0], [None, None], restarts=1)
    assert (job.faults_injected, job.restarts, job.net_retransmits) == (0, 1, 0)
    assert IORResult("file-per-process", 2, 10, 1.0, 0.5).aggregate_GBs == 2e-8
    assert IORBenchmark().config is None
    plan = FaultPlan([FaultEvent(2.0, "node_crash", 0), FaultEvent(1.0, "node_crash", 1)])
    assert [e.t_s for e in plan] == [1.0, 2.0]


def test_keyword_built_models_match_positional_ones():
    assert HPLModel(machine=SN, ntasks=64, n=None, fill_fraction=0.5, block=64,
                    complex_valued=True).time_s() == (
        HPLModel(SN, 64, None, 0.5, 64, True).time_s()
    )
    assert MPIFFTModel(machine=SN, ntasks=64, fill_fraction=0.1).gflops() == (
        MPIFFTModel(SN, 64, 0.1).gflops()
    )
    assert PTRANSModel(machine=SN, ntasks=64, fill_fraction=0.1).gbs() == (
        PTRANSModel(SN, 64, 0.1).gbs()
    )
    assert MPIRandomAccessModel(machine=SN, ntasks=64).gups() == (
        MPIRandomAccessModel(SN, 64).gups()
    )
    assert PingPong(machine=SN, job_nodes=64).latency_us() == (
        PingPong(SN, 64).latency_us()
    )
    assert RingBenchmark(machine=SN, job_nodes=64).random_latency_us() == (
        RingBenchmark(SN, 64).random_latency_us()
    )
    for bench in (FFTBench, DGEMMBench, RandomAccessBench, StreamBench):
        assert bench(machine=SN).core.machine is SN
    assert BidirectionalBandwidth(machine=SN, iters=2).iters == 2
    x1e = PLATFORMS["X1E"]
    assert CAMModel(target=x1e, ntasks=64, threads=2).processors == 128
    assert POPModel(target=x1e, ntasks=64, solver="cgcg").core is None
    assert NAMDModel(machine=SN, ntasks=64).ms_per_step() == (
        NAMDModel(SN, 64).ms_per_step()
    )
    assert S3DModel(machine=SN, ntasks=8, points_per_side=20).points_per_task == 8000
    assert AORSAModel(machine=SN, ntasks=4096, nx=100, ny=80).matrix_order == 24_000


@pytest.mark.parametrize(
    "build",
    [
        lambda: Series("a", [1, 2], [3.0]),
        lambda: HPLModel(SN, 0),
        lambda: HPLModel(SN, 64, fill_fraction=0.0),
        lambda: HPLModel(SN, 64, fill_fraction=1.5),
        lambda: MPIFFTModel(SN, 0),
        lambda: PTRANSModel(SN, 0),
        lambda: MPIRandomAccessModel(SN, 0),
        lambda: CAMModel(SN, 64, threads=0),
        lambda: CAMModel(SN, 64, threads=2),  # no OpenMP on the XT systems
        lambda: CAMModel(SN, 961),  # past the 2D decomposition's limit
        lambda: POPModel(SN, 64, solver="gmres"),
        lambda: POPModel(SN, 0),
        lambda: NAMDModel(SN, 0),
        lambda: S3DModel(SN, 0),
        lambda: AORSAModel(SN, 0),
        lambda: AORSAModel(SN, 64, nx=0),
    ],
)
def test_invalid_arguments_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
