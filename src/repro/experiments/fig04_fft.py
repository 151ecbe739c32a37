"""Figure 4: SP/EP Fast Fourier Transform (node-local)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.hpcc import FFTBench
from repro.machine.configs import xt3, xt4

SYSTEMS = ("XT3", "XT4-SN", "XT4-VN")


def _machines():
    return {"XT3": xt3(), "XT4-SN": xt4("SN"), "XT4-VN": xt4("VN")}


@register("fig04")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig04",
        title="SP/EP Fast Fourier Transform (FFT)",
        xlabel="system",
        ylabel="FFT (GFLOPS)",
    )
    machines = _machines()
    result.add("SP", list(SYSTEMS), [FFTBench(machines[s]).sp_gflops() for s in SYSTEMS])
    result.add("EP", list(SYSTEMS), [FFTBench(machines[s]).ep_gflops() for s in SYSTEMS])
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig04")
    sp = result.get_series("SP")
    ep = result.get_series("EP")
    check.expect_ratio(
        "XT4-SN ~25% over XT3 (memory + clock)",
        sp.value_at("XT4-SN"),
        sp.value_at("XT3"),
        1.1,
        1.3,
    )
    check.expect_ratio(
        "little EP degradation in VN mode",
        ep.value_at("XT4-VN"),
        sp.value_at("XT4-VN"),
        0.75,
        1.0,
    )
    check.expect(
        "SN mode SP == EP (second core idle)",
        abs(sp.value_at("XT4-SN") - ep.value_at("XT4-SN"))
        < 0.05 * sp.value_at("XT4-SN"),
    )
    return check
