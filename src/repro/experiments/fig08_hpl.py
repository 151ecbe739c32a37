"""Figure 8: Global High Performance LINPACK (HPL)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.experiments.common import GLOBAL_SWEEP, global_hpcc_series
from repro.hpcc import HPLModel


@register("fig08")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig08",
        title="Global High Performance LINPACK (HPL)",
        xlabel="cores/sockets",
        ylabel="HPL (TFLOPS)",
    )
    return global_hpcc_series(
        result, lambda machine, p: HPLModel(machine, p).tflops()
    )


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig08")
    p = GLOBAL_SWEEP[-1]
    xt3_v = result.get_series("XT3 (5/06)").value_at(p)
    sn = result.get_series("XT4-SN (2/07)").value_at(p)
    vn_cores = result.get_series("XT4-VN (cores)").value_at(p)
    vn_sockets = result.get_series("XT4-VN (sockets)").value_at(p)
    check.expect_ratio("near clock-proportional per-core gain (SN)", sn, xt3_v, 1.04, 1.2)
    check.expect_ratio("near clock-proportional per-core gain (VN)", vn_cores, xt3_v, 1.0, 1.2)
    check.expect_ratio("VN per-socket nearly doubles SN", vn_sockets, sn, 1.7, 2.05)
    for label in result.labels:
        check.expect_monotone(f"{label} scales", result.get_series(label).y)
    check.expect(
        "magnitude matches figure (~4.5 TF near 1k sockets)",
        3.0 < sn < 5.5,
        f"{sn:.2f}",
    )
    return check
