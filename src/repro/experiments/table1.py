"""Table 1: comparison of the XT3, dual-core XT3 and XT4 systems."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.machine.configs import table1_rows


@register("table1")
def run() -> ExperimentResult:
    return ExperimentResult(
        exp_id="table1",
        title="Comparison of XT3, XT3 dual-core, and XT4 systems at ORNL",
        rows=table1_rows(),
    )


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("table1")
    rows = {r["system"]: r for r in result.rows or []}
    check.expect("three systems", set(rows) == {"XT3", "XT3-DC", "XT4"})
    if check.passed:
        check.expect(
            "XT4 has 12,592 cores", rows["XT4"]["processor_cores"] == 12592
        )
        check.expect(
            "memory bandwidth 6.4 -> 10.6 GB/s",
            rows["XT3"]["memory_bandwidth_GBs"] == 6.4
            and rows["XT4"]["memory_bandwidth_GBs"] == 10.6,
        )
        check.expect(
            "injection bandwidth 2.2 -> 4.0 GB/s",
            rows["XT3"]["network_injection_bandwidth_GBs"] == 2.2
            and rows["XT4"]["network_injection_bandwidth_GBs"] == 4.0,
        )
    return check
