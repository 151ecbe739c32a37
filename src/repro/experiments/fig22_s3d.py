"""Figure 22: S3D parallel (weak-scaling) performance."""

from __future__ import annotations

from repro.apps.s3d import S3DModel
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.experiments.common import S3D_SWEEP
from repro.machine.configs import xt3_dc, xt4


@register("fig22")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig22",
        title="S3D parallel performance (weak scaling, 50^3 points/task)",
        xlabel="number of cores",
        ylabel="cost per grid point per timestep (us)",
    )
    for machine, label in ((xt3_dc("VN"), "XT3"), (xt4("VN"), "XT4")):
        result.add(
            label,
            list(S3D_SWEEP),
            S3DModel(machine, 1).weak_scaling_series(S3D_SWEEP),
        )
    # SN reference points for the SN-vs-VN discussion.
    result.add(
        "XT4 SN",
        list(S3D_SWEEP[:4]),
        S3DModel(xt4("SN"), 1).weak_scaling_series(S3D_SWEEP[:4]),
    )
    return result


def des_companion() -> str:
    """A small S3D (MiniDNS) DES step, for ``repro run --trace``.

    Runs one row-decomposed RK timestep on four XT4-VN tasks so the
    trace carries the weak-scaling pattern's ghost exchanges, compute
    phases and memory-controller draw.
    """
    import numpy as np

    from repro.apps.s3d.solver import MiniDNS

    dns = MiniDNS(nx=16, ny=32)
    x = np.linspace(0, 2 * np.pi, dns.nx, endpoint=False)
    y = np.linspace(0, 2 * np.pi, dns.ny, endpoint=False)
    q0 = np.sin(y)[:, None] + np.cos(x)[None, :]
    _, job = dns.run_distributed(xt4("VN"), 4, q0, dt=1e-3, nsteps=1)
    cost_us = job.elapsed_s * 1.0e6 / (dns.nx * dns.ny)
    return (
        f"DES S3D step XT4-VN: 4 tasks, {dns.ny}x{dns.nx} grid, "
        f"{job.elapsed_s * 1e3:.3f} ms elapsed "
        f"({cost_us:.3f} us per grid point)"
    )


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig22")
    xt3_s = result.get_series("XT3")
    xt4_s = result.get_series("XT4")
    sn = result.get_series("XT4 SN")
    check.expect_flat("XT3 weak scaling flat", xt3_s.y, rel=0.15)
    check.expect_flat("XT4 weak scaling flat", xt4_s.y, rel=0.15)
    check.expect_greater("XT4 below XT3", xt3_s.value_at(512), xt4_s.value_at(512))
    check.expect_ratio(
        "VN ~30% above SN (memory contention)",
        xt4_s.value_at(512),
        sn.value_at(512),
        1.2,
        1.4,
    )
    check.expect(
        "magnitudes match figure (tens of us, < 80)",
        all(10 < v < 80 for v in xt3_s.y + xt4_s.y),
    )
    return check
