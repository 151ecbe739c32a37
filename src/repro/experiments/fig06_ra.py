"""Figure 6: SP/EP RandomAccess (node-local GUPS)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.hpcc import RandomAccessBench
from repro.machine.configs import xt3, xt4

SYSTEMS = ("XT3", "XT4-SN", "XT4-VN")


@register("fig06")
def run() -> ExperimentResult:
    machines = {"XT3": xt3(), "XT4-SN": xt4("SN"), "XT4-VN": xt4("VN")}
    result = ExperimentResult(
        exp_id="fig06",
        title="SP/EP Random Access (RA)",
        xlabel="system",
        ylabel="RandomAccess (GUPS)",
    )
    result.add("SP", list(SYSTEMS), [RandomAccessBench(machines[s]).sp_gups() for s in SYSTEMS])
    result.add("EP", list(SYSTEMS), [RandomAccessBench(machines[s]).ep_gups() for s in SYSTEMS])
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig06")
    sp = result.get_series("SP")
    ep = result.get_series("EP")
    check.expect(
        "XT4 SP improves over XT3 (clock + memory)",
        sp.value_at("XT4-SN") > sp.value_at("XT3"),
    )
    check.expect_close(
        "VN EP per-core is half of SP",
        ep.value_at("XT4-VN"),
        sp.value_at("XT4-VN") / 2,
        rel=0.01,
    )
    check.expect(
        "per-socket rate mode-independent",
        abs(2 * ep.value_at("XT4-VN") - sp.value_at("XT4-VN"))
        < 0.01 * sp.value_at("XT4-VN"),
    )
    check.expect(
        "VN EP falls behind XT3 per core",
        ep.value_at("XT4-VN") < sp.value_at("XT3"),
    )
    return check
