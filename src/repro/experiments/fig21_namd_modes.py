"""Figure 21: NAMD performance impact of SN vs VN modes."""

from __future__ import annotations

from repro.apps.namd import NAMD_1M, NAMD_3M, NAMDModel
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.machine.configs import xt4

SWEEP = (64, 256, 1024, 4096, 6000)


@register("fig21")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig21",
        title="NAMD performance impact of SN vs VN",
        xlabel="MPI tasks",
        ylabel="seconds per NAMD simulation timestep",
    )
    for system, sys_label in ((NAMD_1M, "1M"), (NAMD_3M, "3M")):
        for mode in ("SN", "VN"):
            machine = xt4(mode)
            result.add(
                f"{sys_label}({mode})",
                list(SWEEP),
                [
                    NAMDModel(machine, p, system).seconds_per_step()
                    for p in SWEEP
                ],
            )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig21")
    for sys_label in ("1M", "3M"):
        sn = result.get_series(f"{sys_label}(SN)")
        vn = result.get_series(f"{sys_label}(VN)")
        check.expect_ratio(
            f"{sys_label}: VN penalty <=10% at small counts",
            vn.value_at(256),
            sn.value_at(256),
            1.0,
            1.1,
        )
        small_gap = vn.value_at(256) / sn.value_at(256)
        big_gap = vn.value_at(6000) / sn.value_at(6000)
        check.expect(
            f"{sys_label}: VN gap grows with task count",
            big_gap > small_gap,
            f"{small_gap:.3f} -> {big_gap:.3f}",
        )
    return check
