"""Figure 15: CAM throughput on XT4 relative to previous results."""

from __future__ import annotations

from repro.apps.cam import CAMModel, best_configuration
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.machine.configs import xt4
from repro.machine.platforms import PLATFORMS

PROC_SWEEP = (128, 256, 512, 960)


@register("fig15")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig15",
        title="CAM throughput on XT4 relative to previous results",
        xlabel="processors",
        ylabel="simulated years per day",
    )
    for mode in ("SN", "VN"):
        machine = xt4(mode)
        result.add(
            f"XT4 {mode}",
            list(PROC_SWEEP),
            [
                CAMModel(machine, p).throughput_years_per_day()
                for p in PROC_SWEEP
            ],
        )
    for name in ("X1E", "EarthSimulator", "p690", "p575", "SP"):
        plat = PLATFORMS[name]
        xs, ys = [], []
        for p in PROC_SWEEP:
            if p > plat.total_procs:
                continue
            xs.append(p)
            ys.append(best_configuration(plat, p).throughput_years_per_day())
        result.add(name, xs, ys)
    result.notes = (
        "Each point optimizes over virtual processor grids and OpenMP "
        "thread counts, as in the paper; OpenMP is not used on the Crays."
    )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig15")
    p = PROC_SWEEP[-1]
    sn = result.get_series("XT4 SN").value_at(p)
    vn = result.get_series("XT4 VN").value_at(p)
    p575 = result.get_series("p575").value_at(p)
    check.expect(
        "XT4 SN/VN bracket the p575", sn > p575 > vn,
        f"SN {sn:.2f}, p575 {p575:.2f}, VN {vn:.2f}",
    )
    check.expect_greater(
        "SP is slowest",  # p690 tops out at 864 procs; compare at 512
        result.get_series("p690").value_at(512),
        result.get_series("SP").value_at(512),
    )
    # Vector platforms flatten at 960 (vector length < 128).
    x1e = result.get_series("X1E")
    per_proc_small = x1e.value_at(256) / 256
    per_proc_big = x1e.value_at(960) / 960
    check.expect(
        "X1E per-processor efficiency drops at 960",
        per_proc_big < 0.8 * per_proc_small,
    )
    return check
