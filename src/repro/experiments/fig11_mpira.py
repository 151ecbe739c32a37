"""Figure 11: global RandomAccess (MPI-RA)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.experiments.common import GLOBAL_SWEEP, global_hpcc_series
from repro.hpcc import MPIRandomAccessModel


@register("fig11")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig11",
        title="Global Random Access (MPI-RA)",
        xlabel="cores/sockets",
        ylabel="MPI RandomAccess (GUPS)",
    )
    return global_hpcc_series(
        result, lambda machine, p: MPIRandomAccessModel(machine, p).gups()
    )


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig11")
    p = GLOBAL_SWEEP[-1]
    xt3_v = result.get_series("XT3 (5/06)").value_at(p)
    sn = result.get_series("XT4-SN (2/07)").value_at(p)
    vn_cores = result.get_series("XT4-VN (cores)").value_at(p)
    vn_sockets = result.get_series("XT4-VN (sockets)").value_at(p)
    check.expect_ratio("SN slight improvement over XT3", sn, xt3_v, 1.02, 1.6)
    check.expect("VN slower than XT3 per core", vn_cores < xt3_v)
    check.expect("VN slower than XT3 per socket too", vn_sockets < xt3_v)
    check.expect(
        "magnitude matches figure (0.1-0.3 GUPS near 1k)",
        0.08 < sn < 0.4,
        f"{sn:.3f}",
    )
    return check
