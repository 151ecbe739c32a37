"""Figure 16: CAM performance by computational phase."""

from __future__ import annotations

from repro.apps.cam import CAMModel, best_configuration
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.machine.configs import xt4
from repro.machine.platforms import PLATFORMS

TASK_SWEEP = (128, 256, 504, 960)


@register("fig16")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig16",
        title="CAM performance by computational phase",
        xlabel="MPI tasks (processors for p575)",
        ylabel="seconds per simulated day",
    )
    for mode in ("SN", "VN"):
        models = [CAMModel(xt4(mode), p) for p in TASK_SWEEP]
        result.add(
            f"XT4 {mode} dynamics",
            list(TASK_SWEEP),
            [m.dynamics_seconds_per_day() for m in models],
        )
        result.add(
            f"XT4 {mode} physics",
            list(TASK_SWEEP),
            [m.physics_seconds_per_day() for m in models],
        )
    p575 = PLATFORMS["p575"]
    models = [best_configuration(p575, p) for p in TASK_SWEEP]
    result.add(
        "p575 dynamics",
        list(TASK_SWEEP),
        [m.dynamics_seconds_per_day() for m in models],
    )
    result.add(
        "p575 physics",
        list(TASK_SWEEP),
        [m.physics_seconds_per_day() for m in models],
    )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig16")
    for p in (504, 960):  # 2D-decomposition range, where the paper reads 2x
        dyn = result.get_series("XT4 VN dynamics").value_at(p)
        phys = result.get_series("XT4 VN physics").value_at(p)
        check.expect_ratio(
            f"dynamics ~2x physics at {p}", dyn, phys, 1.5, 2.9
        )
    # Physics costs similar to the p575 through ~504 tasks.
    check.expect_close(
        "XT4/p575 physics similar at 504 tasks",
        result.get_series("XT4 VN physics").value_at(504),
        result.get_series("p575 physics").value_at(504),
        rel=0.5,
    )
    # SN/VN physics gap dominated by Alltoallv (asserted in model tests);
    # here: VN physics is costlier than SN physics at high counts.
    check.expect_greater(
        "VN physics above SN physics at 960",
        result.get_series("XT4 VN physics").value_at(960),
        result.get_series("XT4 SN physics").value_at(960),
    )
    return check
