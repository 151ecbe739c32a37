"""Extension study: the system-balance trend across XT generations.

The paper's opening claim — petascale suitability "will depend on
balance among memory, processor, I/O, and local and global network
performance" (§1) — rendered as a table: bytes-per-flop and
flops-per-message-latency for the XT3, the dual-core XT3, the XT4, and
the projected quad-core XT4.
"""

from __future__ import annotations

from repro.core.analysis import machine_balance
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.machine.configs import xt3, xt3_dc, xt4, xt4_quadcore

MACHINES = ("XT3", "XT3-DC", "XT4", "XT4-QC")


def _machines():
    return {
        "XT3": xt3(),
        "XT3-DC": xt3_dc(),
        "XT4": xt4(),
        "XT4-QC": xt4_quadcore(),
    }


@register("ext_balance")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_balance",
        title="Extension: system balance across XT generations",
        xlabel="generation",
        ylabel="ratio",
    )
    machines = _machines()
    balances = {name: machine_balance(machines[name]) for name in MACHINES}
    result.rows = [
        {"system": name, **{k: round(v, 4) for k, v in balances[name].items()}}
        for name in MACHINES
    ]
    result.add(
        "memory bytes/flop",
        list(MACHINES),
        [balances[n]["memory_bytes_per_flop"] for n in MACHINES],
    )
    result.add(
        "network bytes/flop",
        list(MACHINES),
        [balances[n]["network_bytes_per_flop"] for n in MACHINES],
    )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("ext_balance")
    mem = result.get_series("memory bytes/flop")
    net = result.get_series("network bytes/flop")
    check.expect_greater(
        "dual-core halved the XT3's memory balance",
        mem.value_at("XT3"),
        mem.value_at("XT3-DC"),
        margin=1.8,
    )
    check.expect_greater(
        "DDR2 recovered part of it on the XT4",
        mem.value_at("XT4"),
        mem.value_at("XT3-DC"),
    )
    check.expect_greater(
        "quad-core erodes balance again",
        mem.value_at("XT4"),
        mem.value_at("XT4-QC"),
        margin=2.0,
    )
    check.expect_greater(
        "SeaStar2 restored network balance vs the dual-core XT3",
        net.value_at("XT4"),
        net.value_at("XT3-DC"),
    )
    check.expect(
        "no generation recovers the single-core XT3's balance",
        all(mem.value_at(n) < mem.value_at("XT3") for n in MACHINES[1:]),
    )
    return check
