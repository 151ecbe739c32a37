"""Figure 18: POP throughput on XT4 relative to previous results."""

from __future__ import annotations

from repro.apps.pop import POPModel
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.experiments.common import POP_COMBINED_SWEEP, POP_SWEEP
from repro.machine.configs import xt3_xt4_combined, xt4
from repro.machine.platforms import PLATFORMS

PLATFORM_SWEEP = (250, 500, 864)  # bounded by the smallest platform (p690)


@register("fig18")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig18",
        title="POP throughput on XT4 relative to previous results",
        xlabel="MPI tasks / processors",
        ylabel="simulated years per day",
    )
    sn = xt4("SN")
    result.add(
        "XT4 SN",
        list(POP_SWEEP),
        [POPModel(sn, p).throughput_years_per_day() for p in POP_SWEEP],
    )
    comb = xt3_xt4_combined("VN")
    sweep = [10000] + list(POP_COMBINED_SWEEP)[1:]
    result.add(
        "XT4 VN (combined XT3/XT4 beyond 10k)",
        sweep,
        [POPModel(comb, p).throughput_years_per_day() for p in sweep],
    )
    result.add(
        "XT4 VN + Chronopoulos-Gear",
        sweep,
        [
            POPModel(comb, p, solver="cgcg").throughput_years_per_day()
            for p in sweep
        ],
    )
    for name in ("X1E", "EarthSimulator", "p690", "p575", "SP"):
        plat = PLATFORMS[name]
        xs = [p for p in PLATFORM_SWEEP if p <= plat.total_procs]
        result.add(
            name,
            xs,
            [POPModel(plat, p).throughput_years_per_day() for p in xs],
        )
    result.notes = "X1E uses the Co-Array Fortran halo-update implementation."
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig18")
    cg = result.get_series("XT4 VN (combined XT3/XT4 beyond 10k)")
    cgcg = result.get_series("XT4 VN + Chronopoulos-Gear")
    check.expect_ratio(
        "C-G variant improves significantly at 22k",
        cgcg.value_at(22000),
        cg.value_at(22000),
        1.15,
        1.8,
    )
    check.expect_monotone("combined system scales to 22k", cg.y)
    # X1E (CAF halo) leads the other previous-generation platforms.
    p = 500
    check.expect_greater(
        "X1E leads p575 at 500",
        result.get_series("X1E").value_at(p),
        result.get_series("p575").value_at(p),
    )
    check.expect_greater(
        "p575 leads SP", result.get_series("p575").value_at(p),
        result.get_series("SP").value_at(p),
    )
    return check
