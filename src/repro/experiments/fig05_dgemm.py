"""Figure 5: SP/EP matrix multiply (DGEMM, node-local)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.hpcc import DGEMMBench
from repro.machine.configs import xt3, xt4

SYSTEMS = ("XT3", "XT4-SN", "XT4-VN")


@register("fig05")
def run() -> ExperimentResult:
    machines = {"XT3": xt3(), "XT4-SN": xt4("SN"), "XT4-VN": xt4("VN")}
    result = ExperimentResult(
        exp_id="fig05",
        title="SP/EP Matrix Multiply (DGEMM)",
        xlabel="system",
        ylabel="DGEMM (GFLOPS)",
    )
    result.add("SP", list(SYSTEMS), [DGEMMBench(machines[s]).sp_gflops() for s in SYSTEMS])
    result.add("EP", list(SYSTEMS), [DGEMMBench(machines[s]).ep_gflops() for s in SYSTEMS])
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig05")
    sp = result.get_series("SP")
    ep = result.get_series("EP")
    check.expect_ratio(
        "small clock-driven XT4 gain (2.6/2.4)",
        sp.value_at("XT4-SN"),
        sp.value_at("XT3"),
        1.04,
        1.15,
    )
    check.expect_ratio(
        "negligible EP degradation (temporal locality)",
        ep.value_at("XT4-VN"),
        sp.value_at("XT4-VN"),
        0.97,
        1.0,
    )
    check.expect(
        "magnitudes match figure (4-5 GFLOPS)",
        4.0 < sp.value_at("XT3") < 4.6 and 4.5 < sp.value_at("XT4-SN") < 5.0,
    )
    return check
