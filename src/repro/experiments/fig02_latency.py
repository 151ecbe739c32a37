"""Figure 2: HPCC network latency (ping-pong min/avg/max, rings)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.hpcc import PingPong, RingBenchmark
from repro.machine.configs import xt3, xt4

CATEGORIES = ("PPmin", "PPavg", "PPmax", "Nat.Ring", "Rand.Ring")


def _series(machine) -> list:
    pp = PingPong(machine)
    ring = RingBenchmark(machine)
    return [
        pp.latency_us("min"),
        pp.latency_us("avg"),
        pp.latency_us("max"),
        ring.natural_latency_us(),
        ring.random_latency_us(),
    ]


@register("fig02")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig02",
        title="Network latency",
        xlabel="pattern",
        ylabel="latency (us)",
    )
    result.add("XT3", list(CATEGORIES), _series(xt3()))
    result.add("XT4-SN", list(CATEGORIES), _series(xt4("SN")))
    result.add("XT4-VN", list(CATEGORIES), _series(xt4("VN")))
    return result


def des_companion() -> str:
    """Discrete-event runs behind the figure, for ``repro run --trace``.

    The figure itself comes from closed-form latency models; this runs
    the same 8-byte ping-pong on the DES MPI in both XT4 modes so a
    ``--trace`` invocation captures real rank / NIC / link activity.
    """
    lines = []
    for label, machine in (("XT4-SN", xt4("SN")), ("XT4-VN", xt4("VN"))):
        one_way_us = PingPong(machine).run_des(nbytes=8, iters=10)
        lines.append(f"DES ping-pong {label}: {one_way_us:.3f} us one-way")
    return "\n".join(lines)


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig02")
    xt3_s = result.get_series("XT3")
    sn = result.get_series("XT4-SN")
    vn = result.get_series("XT4-VN")
    check.expect_close("XT4-SN best case ~4.5us", sn.value_at("PPmin"), 4.5, rel=0.05)
    check.expect_close("XT3 best case ~6us", xt3_s.value_at("PPmin"), 6.0, rel=0.05)
    check.expect(
        "VN worst case approaches 18us", 15 < vn.value_at("PPmax") < 21,
        f"{vn.value_at('PPmax'):.2f}",
    )
    for cat in CATEGORIES:
        check.expect(
            f"SN beats XT3 at {cat}", sn.value_at(cat) < xt3_s.value_at(cat)
        )
        check.expect(
            f"VN above SN at {cat}", vn.value_at(cat) > sn.value_at(cat)
        )
    return check
