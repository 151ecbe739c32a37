"""Figure 3: HPCC network bandwidth (ping-pong, rings)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.hpcc import PingPong, RingBenchmark
from repro.machine.configs import xt3, xt4

CATEGORIES = ("PPmin", "PPavg", "PPmax", "Nat.Ring", "Rand.Ring")


#: Common job size for the ring measurements (the systems have different
#: totals; HPCC runs compared "across a broad range of problem sizes").
JOB_NODES = 1024


def _series(machine) -> list:
    pp = PingPong(machine)
    ring = RingBenchmark(machine, job_nodes=JOB_NODES)
    return [
        pp.bandwidth_GBs("min"),
        pp.bandwidth_GBs("avg"),
        pp.bandwidth_GBs("max"),
        ring.natural_bandwidth_GBs(),
        ring.random_bandwidth_GBs(),
    ]


@register("fig03")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig03",
        title="Network bandwidth",
        xlabel="pattern",
        ylabel="bandwidth (GB/s)",
    )
    result.add("XT3", list(CATEGORIES), _series(xt3()))
    result.add("XT4-SN", list(CATEGORIES), _series(xt4("SN")))
    result.add("XT4-VN", list(CATEGORIES), _series(xt4("VN")))
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig03")
    xt3_s = result.get_series("XT3")
    sn = result.get_series("XT4-SN")
    vn = result.get_series("XT4-VN")
    check.expect_close("XT4 ping-pong just over 2 GB/s", sn.value_at("PPavg"), 2.1, rel=0.05)
    check.expect_close("XT3 ping-pong ~1.15 GB/s", xt3_s.value_at("PPavg"), 1.15, rel=0.05)
    check.expect(
        "SN rings improved over XT3",
        sn.value_at("Nat.Ring") > xt3_s.value_at("Nat.Ring")
        and sn.value_at("Rand.Ring") > xt3_s.value_at("Rand.Ring"),
    )
    check.expect(
        "VN per-core natural ring slightly below XT3",
        vn.value_at("Nat.Ring") < xt3_s.value_at("Nat.Ring"),
    )
    check.expect(
        "VN per-socket natural ring above XT3",
        2 * vn.value_at("Nat.Ring") > xt3_s.value_at("Nat.Ring"),
    )
    return check
