"""Figures 12–13: bidirectional MPI bandwidth vs message size.

One driver covers both figures (they plot the same data on log-log and
log-linear axes). The series follow the paper's legend: single-core XT3,
dual-core XT3 and XT4 one-pair internode exchanges, plus the two-pair
"i-(i+2), i=0,1 (VN)" worst case on the dual-core systems.
"""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.hpcc.bidirectional import BidirectionalBandwidth
from repro.machine.configs import xt3, xt3_dc, xt4

SIZES = (8, 512, 4096, 32_768, 100_000, 262_144, 1_048_576, 4_194_304)


@register("fig12_13")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig12_13",
        title="Bidirectional MPI bandwidth",
        xlabel="message size (bytes)",
        ylabel="bandwidth per pair (GB/s)",
    )
    for machine, label in (
        (xt3(), "XT3-SC 0-1 internode"),
        (xt3_dc(), "XT3-DC 0-1 internode"),
        (xt4(), "XT4 0-1 internode"),
    ):
        bench = BidirectionalBandwidth(machine)
        sizes, bws = bench.sweep(pairs=1, sizes=SIZES)
        result.add(label, sizes, bws)
    for machine, label in (
        (xt3_dc(), "XT3-DC i-(i+2) (VN)"),
        (xt4(), "XT4 i-(i+2) (VN)"),
    ):
        bench = BidirectionalBandwidth(machine)
        sizes, bws = bench.sweep(pairs=2, sizes=SIZES)
        result.add(label, sizes, bws)
    result.notes = (
        "Two-pair runs place two tasks per node (VN); one-pair runs place "
        "the pair on separate nodes with the partner core idle."
    )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig12_13")
    big = SIZES[-1]
    xt4_1 = result.get_series("XT4 0-1 internode")
    xt3dc_1 = result.get_series("XT3-DC 0-1 internode")
    xt3sc_1 = result.get_series("XT3-SC 0-1 internode")
    xt4_2 = result.get_series("XT4 i-(i+2) (VN)")
    xt3dc_2 = result.get_series("XT3-DC i-(i+2) (VN)")
    for size in (262_144, 1_048_576, big):
        check.expect_ratio(
            f"XT4 >= 1.8x XT3-DC at {size}B",
            xt4_1.value_at(size),
            xt3dc_1.value_at(size),
            1.8,
            3.0,
        )
    check.expect_close(
        "two-pair = half per-pair bandwidth (XT4)",
        xt4_2.value_at(big),
        xt4_1.value_at(big) / 2,
        rel=0.03,
    )
    check.expect_close(
        "two-pair = half per-pair bandwidth (XT3-DC)",
        xt3dc_2.value_at(big),
        xt3dc_1.value_at(big) / 2,
        rel=0.03,
    )
    check.expect_close(
        "single-core XT3 reaches dual-core XT3 peak",
        xt3sc_1.value_at(big),
        xt3dc_1.value_at(big),
        rel=0.05,
    )
    for label in result.labels:
        check.expect_monotone(f"{label} grows with size", result.get_series(label).y)
    return check
