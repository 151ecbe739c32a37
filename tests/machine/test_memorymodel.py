"""Tests for the shared memory-controller model — the engine behind Figs 4-7."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.machine import MemoryModel, xt3, xt4
from repro.machine.configs import DDR2_667, DDR_400, PROFILES


@pytest.fixture
def xt4_mem():
    return MemoryModel(DDR2_667, cores=2)


@pytest.fixture
def xt3_mem():
    return MemoryModel(DDR_400, cores=1)


def test_stream_single_core_near_socket_achievable(xt4_mem):
    # One core draws nearly the full achievable socket bandwidth.
    assert xt4_mem.stream_triad_GBs(1) == pytest.approx(
        DDR2_667.achievable_bw_GBs * DDR2_667.single_core_bw_fraction
    )


def test_stream_two_cores_split_socket_bandwidth(xt4_mem):
    per_core_2 = xt4_mem.stream_triad_GBs(2)
    assert per_core_2 == pytest.approx(DDR2_667.achievable_bw_GBs / 2)
    # Second core adds almost nothing at socket level (paper Fig. 7).
    socket_1 = xt4_mem.stream_triad_GBs(1)
    socket_2 = 2 * per_core_2
    assert socket_2 / socket_1 < 1.05


def test_stream_xt4_beats_xt3(xt3_mem, xt4_mem):
    assert xt4_mem.stream_triad_GBs(1) > xt3_mem.stream_triad_GBs(1)


def test_stream_values_match_paper(xt3_mem, xt4_mem):
    # Fig. 7: XT3 ~4.1 GB/s, XT4 SP ~6.3-6.5 GB/s.
    assert xt3_mem.stream_triad_GBs(1) == pytest.approx(4.1, rel=0.05)
    assert xt4_mem.stream_triad_GBs(1) == pytest.approx(6.3, rel=0.05)


def test_random_access_per_core_halves_with_two_cores(xt4_mem):
    sp = xt4_mem.random_access_gups(1)
    ep = xt4_mem.random_access_gups(2)
    assert ep == pytest.approx(sp / 2)
    # Per-socket rate is mode independent.
    assert 2 * ep == pytest.approx(sp)


def test_random_access_xt4_improves_over_xt3(xt3_mem, xt4_mem):
    assert xt4_mem.random_access_gups(1) > xt3_mem.random_access_gups(1)


def test_active_core_bounds(xt4_mem):
    with pytest.raises(ValueError):
        xt4_mem.stream_triad_GBs(0)
    with pytest.raises(ValueError):
        xt4_mem.stream_triad_GBs(3)


def test_private_controller_counterfactual_keeps_per_core_bandwidth():
    # Fig. 22's S3D VN penalty is the shared controller's: give each core
    # a private DDR2-667 and the second core costs the first nothing.
    private = replace(
        DDR2_667,
        name="private-controller counterfactual",
        peak_bw_GBs=2 * DDR2_667.peak_bw_GBs,
        single_core_bw_fraction=0.5,
    )
    mem = MemoryModel(private, cores=2)
    assert mem.per_core_bandwidth_GBs(2) == pytest.approx(
        mem.per_core_bandwidth_GBs(1), rel=0.01
    )


def test_dgemm_profile_insensitive_to_sharing(xt4_mem):
    peak = 5.2
    sp = xt4_mem.workload_rate_gflops(PROFILES["dgemm"], peak, 1)
    ep = xt4_mem.workload_rate_gflops(PROFILES["dgemm"], peak, 2)
    assert ep / sp > 0.97  # "little degradation" (Fig. 5)
    # Compute roofline minus the small memory-traffic term.
    assert sp == pytest.approx(peak * 0.92, rel=0.02)


def test_fft_profile_modest_sharing_degradation(xt4_mem):
    peak = 5.2
    sp = xt4_mem.workload_rate_gflops(PROFILES["fft"], peak, 1)
    ep = xt4_mem.workload_rate_gflops(PROFILES["fft"], peak, 2)
    # Much gentler than the 50% random-access / STREAM penalty.
    assert 0.75 < ep / sp < 1.0


def test_fft_xt4_improvement_over_xt3(xt3_mem, xt4_mem):
    # Fig. 4: ~25% improvement, memory + clock; the shared-fit model gives ~19%.
    r3 = xt3_mem.workload_rate_gflops(PROFILES["fft"], 4.8, 1)
    r4 = xt4_mem.workload_rate_gflops(PROFILES["fft"], 5.2, 1)
    assert 1.1 < r4 / r3 < 1.3


def test_workload_time_is_flops_over_rate(xt4_mem):
    rate = xt4_mem.workload_rate_gflops(PROFILES["dgemm"], 5.2, 1)
    t = xt4_mem.workload_time_s(2.0e9, PROFILES["dgemm"], 5.2, 1)
    assert t == pytest.approx(2.0 / rate)


def test_negative_flops_rejected(xt4_mem):
    with pytest.raises(ValueError):
        xt4_mem.workload_time_s(-1, PROFILES["dgemm"], 5.2, 1)
    with pytest.raises(ValueError):
        xt4_mem.bytes_time_s(-1, 1)


@given(
    beta=st.floats(min_value=0.0, max_value=10.0),
    eff=st.floats(min_value=0.01, max_value=1.0),
)
def test_rate_monotone_in_active_cores(beta, eff):
    """More active cores can never raise the per-core rate."""
    from repro.machine.specs import WorkloadProfile

    mem = MemoryModel(DDR2_667, cores=2)
    p = WorkloadProfile("w", bytes_per_flop=beta, compute_efficiency=eff)
    r1 = mem.workload_rate_gflops(p, 5.2, 1)
    r2 = mem.workload_rate_gflops(p, 5.2, 2)
    assert r2 <= r1 + 1e-12
    assert r1 <= 5.2 * eff + 1e-12  # never exceeds the compute roofline


@given(beta=st.floats(min_value=0.0, max_value=10.0))
def test_rate_decreases_with_bytes_per_flop(beta):
    from repro.machine.specs import WorkloadProfile

    mem = MemoryModel(DDR2_667, cores=2)
    lo = WorkloadProfile("lo", bytes_per_flop=beta, compute_efficiency=0.5)
    hi = WorkloadProfile("hi", bytes_per_flop=beta + 0.5, compute_efficiency=0.5)
    assert mem.workload_rate_gflops(hi, 5.2, 1) < mem.workload_rate_gflops(
        lo, 5.2, 1
    ) + 1e-12  # simlint: ignore[SL302] — literal rate is the test vector
