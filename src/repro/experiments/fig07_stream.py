"""Figure 7: SP/EP memory bandwidth (STREAM triad, node-local)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.hpcc import StreamBench
from repro.machine.configs import xt3, xt4

SYSTEMS = ("XT3", "XT4-SN", "XT4-VN")


@register("fig07")
def run() -> ExperimentResult:
    machines = {"XT3": xt3(), "XT4-SN": xt4("SN"), "XT4-VN": xt4("VN")}
    result = ExperimentResult(
        exp_id="fig07",
        title="SP/EP Memory Bandwidth (Streams)",
        xlabel="system",
        ylabel="Stream Triad (GB/s)",
    )
    result.add("SP", list(SYSTEMS), [StreamBench(machines[s]).sp_GBs() for s in SYSTEMS])
    result.add("EP", list(SYSTEMS), [StreamBench(machines[s]).ep_GBs() for s in SYSTEMS])
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig07")
    sp = result.get_series("SP")
    ep = result.get_series("EP")
    check.expect(
        "XT4 per-socket beats XT3 (DDR2-667)",
        sp.value_at("XT4-SN") > 1.4 * sp.value_at("XT3"),
    )
    check.expect(
        "second core adds little at socket level",
        2 * ep.value_at("XT4-VN") < 1.05 * sp.value_at("XT4-VN"),
    )
    check.expect(
        "magnitudes match figure",
        3.8 < sp.value_at("XT3") < 4.4 and 6.0 < sp.value_at("XT4-SN") < 6.8,
    )
    return check
