"""Figure 19: POP performance by computational phase."""

from __future__ import annotations

from repro.apps.pop import POPModel
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.machine.configs import xt3_xt4_combined, xt4

TASKS = (2500, 5000, 10000, 16000, 22000)


@register("fig19")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig19",
        title="POP performance by computational phase",
        xlabel="MPI tasks",
        ylabel="seconds per simulated day",
    )
    sn, comb = xt4("SN"), xt3_xt4_combined("VN")
    sn_tasks = [p for p in TASKS if p <= 5000]
    # One model per point serves both of its phase series.
    sn_models = [POPModel(sn, p) for p in sn_tasks]
    vn_models = [POPModel(comb, p) for p in TASKS]
    result.add(
        "baroclinic SN", sn_tasks, [m.baroclinic_s_per_day() for m in sn_models]
    )
    result.add(
        "barotropic SN", sn_tasks, [m.barotropic_s_per_day() for m in sn_models]
    )
    result.add(
        "baroclinic VN", list(TASKS), [m.baroclinic_s_per_day() for m in vn_models]
    )
    result.add(
        "barotropic VN", list(TASKS), [m.barotropic_s_per_day() for m in vn_models]
    )
    result.add(
        "barotropic VN (C-G)",
        list(TASKS),
        [
            POPModel(comb, p, solver="cgcg").barotropic_s_per_day()
            for p in TASKS
        ],
    )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig19")
    bc = result.get_series("baroclinic VN")
    bt = result.get_series("barotropic VN")
    btcg = result.get_series("barotropic VN (C-G)")
    check.expect_monotone("baroclinic scales (decreasing)", bc.y, increasing=False)
    check.expect_flat("barotropic relatively flat", bt.y, rel=0.6)
    check.expect_greater(
        "barotropic dominates at 22k", bt.value_at(22000), bc.value_at(22000)
    )
    check.expect_greater(
        "C-G cuts barotropic cost", bt.value_at(22000), btcg.value_at(22000),
        margin=1.2,
    )
    return check
