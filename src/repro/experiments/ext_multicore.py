"""Extension study: the paper's future work — quad-core impact.

§7: "In the future, we plan to investigate the impact of multi-core
devices in the Cray MPP systems." This study runs the paper's §5.1
locality analysis forward onto a projected quad-core XT4 (Barcelona-class
cores, DDR2-800, same SeaStar2 and per-socket memory controller): for
each locality corner, the per-core EP rate and the socket-level speedup
from enabling 1 → 2 → 4 cores.

The projection sharpens the paper's conclusion: highly temporal kernels
(DGEMM) keep scaling with cores; FFT-class kernels saturate; bandwidth-
and latency-bound kernels gain nothing after the first core — so the
fraction of the machine that multi-core helps *shrinks* with each
generation unless memory bandwidth scales too.
"""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.machine.configs import PROFILES, xt4, xt4_quadcore
from repro.machine.memorymodel import MemoryModel

CORE_COUNTS = (1, 2, 4)


@register("ext_multicore")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_multicore",
        title="Extension: socket speedup vs active cores (quad-core projection)",
        xlabel="active cores per socket",
        ylabel="socket speedup over one core",
    )
    machine = xt4_quadcore()
    mem = MemoryModel(machine.node.memory, machine.node.cores)
    peak = machine.node.processor.peak_gflops_per_core

    for name in ("dgemm", "hpl", "fft"):
        profile = PROFILES[name]
        base = mem.workload_rate_gflops(profile, peak, 1)
        result.add(
            name,
            list(CORE_COUNTS),
            [
                n * mem.workload_rate_gflops(profile, peak, n) / base
                for n in CORE_COUNTS
            ],
        )
    result.add(
        "stream",
        list(CORE_COUNTS),
        [n * mem.stream_triad_GBs(n) / mem.stream_triad_GBs(1) for n in CORE_COUNTS],
    )
    result.add(
        "random access",
        list(CORE_COUNTS),
        [
            n * mem.random_access_gups(n) / mem.random_access_gups(1)
            for n in CORE_COUNTS
        ],
    )
    # Context: dual-core measured machine, same metric.
    dual = xt4()
    dual_mem = MemoryModel(dual.node.memory, dual.node.cores)
    dual_peak = dual.node.processor.peak_gflops_per_core
    result.add(
        "fft (dual-core XT4, measured machine)",
        [1, 2],
        [
            n * dual_mem.workload_rate_gflops(PROFILES["fft"], dual_peak, n)
            / dual_mem.workload_rate_gflops(PROFILES["fft"], dual_peak, 1)
            for n in (1, 2)
        ],
    )
    result.notes = (
        "Projected quad-core XT4: 2.1 GHz Barcelona-class cores (4 "
        "flops/cycle), DDR2-800, SeaStar2. Speedup of the whole socket "
        "when 1, 2 or 4 cores are active."
    )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("ext_multicore")
    dgemm = result.get_series("dgemm")
    fft = result.get_series("fft")
    stream = result.get_series("stream")
    ra = result.get_series("random access")
    check.expect_ratio(
        "DGEMM scales nearly 4x with 4 cores", dgemm.value_at(4), 1.0, 3.6, 4.0
    )
    check.expect(
        "FFT saturates between 2 and 4 cores",
        fft.value_at(4) < 2.0 * fft.value_at(2),
        f"2c {fft.value_at(2):.2f} -> 4c {fft.value_at(4):.2f}",
    )
    check.expect_close(
        "STREAM socket rate flat beyond 1 core", stream.value_at(4), 1.0, rel=0.05
    )
    check.expect_close(
        "RandomAccess socket rate flat", ra.value_at(4), 1.0, rel=0.01
    )
    check.expect_monotone("DGEMM monotone in cores", dgemm.y)
    return check
