"""Figure 10: global matrix transpose (PTRANS)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.experiments.common import GLOBAL_SWEEP, global_hpcc_series
from repro.hpcc import PTRANSModel


@register("fig10")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig10",
        title="Global Matrix Transpose (PTRANS)",
        xlabel="cores/sockets",
        ylabel="PTRANS (GB/s)",
    )
    return global_hpcc_series(
        result, lambda machine, p: PTRANSModel(machine, p).gbs()
    )


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig10")
    p = GLOBAL_SWEEP[-1]
    xt3_v = result.get_series("XT3 (5/06)").value_at(p)
    sn = result.get_series("XT4-SN (2/07)").value_at(p)
    vn_sockets = result.get_series("XT4-VN (sockets)").value_at(p)
    check.expect_close(
        "per-socket PTRANS essentially unchanged XT3 -> XT4", sn, xt3_v, rel=0.2
    )
    check.expect_close(
        "VN per-socket matches SN (link-bandwidth bound)", vn_sockets, sn, rel=0.25
    )
    check.expect(
        "magnitude matches figure (~100-180 GB/s near 1k sockets)",
        80 < sn < 300,
        f"{sn:.0f}",
    )
    return check
