"""Figure 9: global Fast Fourier Transform (MPI-FFT)."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.experiments.common import GLOBAL_SWEEP, global_hpcc_series
from repro.hpcc import MPIFFTModel


@register("fig09")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig09",
        title="Global Fast Fourier Transform (MPI-FFT)",
        xlabel="cores/sockets",
        ylabel="MPI-FFT (GFLOPS)",
    )
    return global_hpcc_series(
        result, lambda machine, p: MPIFFTModel(machine, p).gflops()
    )


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig09")
    p = GLOBAL_SWEEP[-1]
    xt3_v = result.get_series("XT3 (5/06)").value_at(p)
    sn = result.get_series("XT4-SN (2/07)").value_at(p)
    vn_cores = result.get_series("XT4-VN (cores)").value_at(p)
    vn_sockets = result.get_series("XT4-VN (sockets)").value_at(p)
    check.expect_greater("XT4 faster per socket (SN)", sn, xt3_v)
    check.expect_greater("XT4 faster per socket (VN)", vn_sockets, xt3_v)
    check.expect(
        "VN per-core much worse (NIC bottleneck)",
        vn_cores < 0.85 * sn,
        f"{vn_cores:.1f} vs SN {sn:.1f}",
    )
    return check
