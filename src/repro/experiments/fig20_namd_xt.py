"""Figure 20: NAMD performance on XT4 vs XT3 (1M and 3M atoms)."""

from __future__ import annotations

from repro.apps.namd import NAMD_1M, NAMD_3M, NAMDModel
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.experiments.common import NAMD_SWEEP
from repro.machine.configs import xt3_dc, xt4


@register("fig20")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig20",
        title="NAMD performance on XT4 vs XT3",
        xlabel="MPI tasks",
        ylabel="seconds per NAMD simulation timestep",
    )
    for system, sys_label in ((NAMD_1M, "1M"), (NAMD_3M, "3M")):
        for machine, label in ((xt3_dc("VN"), "XT3"), (xt4("VN"), "XT4")):
            sweep = [p for p in NAMD_SWEEP if not (sys_label == "1M" and p > 8192)]
            result.add(
                f"{label}({sys_label})",
                sweep,
                [
                    NAMDModel(machine, p, system).seconds_per_step()
                    for p in sweep
                ],
            )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig20")
    one_m = result.get_series("XT4(1M)")
    three_m = result.get_series("XT4(3M)")
    check.expect(
        "1M reaches ~9 ms/step at 8192",
        0.007 < one_m.value_at(8192) < 0.011,
        f"{one_m.value_at(8192)*1e3:.1f} ms",
    )
    check.expect(
        "3M sustains ~12 ms/step at 12000",
        0.010 < three_m.value_at(12000) < 0.016,
        f"{three_m.value_at(12000)*1e3:.1f} ms",
    )
    for p in (256, 2048):
        check.expect_ratio(
            f"XT4 ~5% faster at {p}",
            result.get_series("XT3(1M)").value_at(p),
            result.get_series("XT4(1M)").value_at(p),
            1.02,
            1.10,
        )
    for label in result.labels:
        check.expect_monotone(
            f"{label} time decreases with tasks",
            result.get_series(label).y,
            increasing=False,
        )
    return check
