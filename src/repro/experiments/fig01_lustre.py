"""Figure 1: Lustre filesystem architecture (exercised, not just drawn).

The paper's Figure 1 is an architecture diagram; we regenerate its
content as the component inventory of the simulated filesystem plus an
IOR-style sweep demonstrating the two behaviours §2 describes: data
bandwidth scaling with OSS count, and the single-MDS metadata bottleneck.
"""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.lustre import IORBenchmark, LustreConfig

CLIENT_SWEEP = (4, 16, 64, 256)


@register("fig01")
def run() -> ExperimentResult:
    config = LustreConfig(num_oss=8, osts_per_oss=4)
    result = ExperimentResult(
        exp_id="fig01",
        title="Lustre filesystem architecture (simulated)",
        xlabel="clients",
        ylabel="aggregate write bandwidth (GB/s) / metadata time (s)",
        rows=[
            {
                "component": "MDS",
                "count": 1,
                "role": "metadata (opens, creates); single instance",
            },
            {
                "component": "OSS",
                "count": config.num_oss,
                "role": f"object storage servers, {config.oss_bandwidth_GBs} GB/s each",
            },
            {
                "component": "OST",
                "count": config.total_osts,
                "role": "object storage targets (file objects)",
            },
            {
                "component": "client (liblustre)",
                "count": "per compute node",
                "role": "statically linked compute-node access",
            },
        ],
    )
    bench = IORBenchmark(config)
    bw, meta = [], []
    for n in CLIENT_SWEEP:
        r = bench.run(n, bytes_per_client=16 << 20, pattern="file-per-process")
        bw.append(r.aggregate_GBs)
        meta.append(r.metadata_s)
    result.add("aggregate write GB/s (file-per-process)", list(CLIENT_SWEEP), bw)
    result.add("metadata seconds (file-per-process)", list(CLIENT_SWEEP), meta)
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig01")
    bw = result.get_series("aggregate write GB/s (file-per-process)")
    meta = result.get_series("metadata seconds (file-per-process)")
    config = LustreConfig(num_oss=8, osts_per_oss=4)
    check.expect(
        "bandwidth saturates at OSS aggregate",
        bw.last <= config.peak_bandwidth_GBs * 1.01,
        f"{bw.last:.2f} vs {config.peak_bandwidth_GBs:.2f}",
    )
    check.expect_monotone("bandwidth grows with clients", bw.y, slack=0.05)
    check.expect_monotone("metadata time grows with clients", meta.y)
    check.expect_ratio(
        "metadata ~linear in clients (single MDS)",
        meta.value_at(256),
        meta.value_at(4),
        40,
        80,
    )
    return check
