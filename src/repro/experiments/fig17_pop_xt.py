"""Figure 17: POP throughput on XT4 vs XT3 (0.1° benchmark)."""

from __future__ import annotations

from repro.apps.pop import POPModel
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.experiments.common import POP_SWEEP
from repro.machine.configs import xt3, xt3_dc, xt4


@register("fig17")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig17",
        title="POP throughput on XT4 vs XT3 (0.1-degree benchmark)",
        xlabel="MPI tasks",
        ylabel="simulated years per day",
    )
    for machine, label in (
        (xt3(), "XT3 single-core"),
        (xt3_dc("SN"), "XT3-DC SN"),
        (xt4("SN"), "XT4 SN"),
        (xt4("VN"), "XT4 VN"),
    ):
        result.add(
            label,
            list(POP_SWEEP),
            [POPModel(machine, p).throughput_years_per_day() for p in POP_SWEEP],
        )
    # The equal-node comparison the paper highlights.
    result.add(
        "XT4 VN (10000 tasks, same nodes as 5000 SN)",
        [10000],
        [POPModel(xt4("VN"), 10000).throughput_years_per_day()],
    )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig17")
    p = POP_SWEEP[-1]
    sn = result.get_series("XT4 SN")
    check.expect_greater(
        "XT4 beats XT3 per task", sn.value_at(p),
        result.get_series("XT3 single-core").value_at(p),
    )
    check.expect_ratio(
        "single->dual-core XT3: no measurable gain",
        result.get_series("XT3-DC SN").value_at(2500),
        result.get_series("XT3 single-core").value_at(2500),
        1.0,
        1.08,
    )
    vn10k = result.get_series(
        "XT4 VN (10000 tasks, same nodes as 5000 SN)"
    ).value_at(10000)
    check.expect_ratio(
        "equal nodes: 10k VN ~40% over 5k SN", vn10k, sn.value_at(5000), 1.15, 1.6
    )
    for label in ("XT3 single-core", "XT4 SN", "XT4 VN"):
        check.expect_monotone(f"{label} scales", result.get_series(label).y)
    return check
