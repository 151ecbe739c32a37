"""Figure 14: CAM throughput on XT4 vs XT3."""

from __future__ import annotations

from repro.apps.cam import CAMModel
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.experiments.common import CAM_SWEEP
from repro.machine.configs import xt3, xt3_dc, xt4


@register("fig14")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig14",
        title="CAM throughput on XT4 vs XT3 (D-grid benchmark)",
        xlabel="MPI tasks",
        ylabel="simulated years per day",
    )
    for machine, label in (
        (xt3(), "XT3 single-core"),
        (xt3_dc("SN"), "XT3-DC SN"),
        (xt3_dc("VN"), "XT3-DC VN"),
        (xt4("SN"), "XT4 SN"),
        (xt4("VN"), "XT4 VN"),
    ):
        result.add(
            label,
            list(CAM_SWEEP),
            [CAMModel(machine, p).throughput_years_per_day() for p in CAM_SWEEP],
        )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig14")
    p = CAM_SWEEP[-1]
    sn = result.get_series("XT4 SN")
    vn = result.get_series("XT4 VN")
    check.expect_greater("XT4 SN beats XT3-DC SN", sn.value_at(p),
                         result.get_series("XT3-DC SN").value_at(p))
    check.expect_greater("XT4 VN beats XT3-DC VN", vn.value_at(p),
                         result.get_series("XT3-DC VN").value_at(p))
    check.expect_ratio(
        "SN ~10% faster per task at high counts",
        sn.value_at(p), vn.value_at(p), 1.02, 1.25,
    )
    check.expect_ratio(
        "equal-node comparison: 960 VN ~30% over 504 SN",
        vn.value_at(960), sn.value_at(504), 1.2, 1.7,
    )
    for label in result.labels:
        check.expect_monotone(f"{label} scales to 960", result.get_series(label).y)
    return check
