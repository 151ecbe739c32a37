"""Tests for the per-core kernel rate model."""

import pytest

from repro.machine import CoreModel, xt3, xt4


def test_dgemm_rates_match_paper_fig5():
    # Fig. 5: XT3 ~4.4 GFLOPS, XT4 ~4.8 GFLOPS.
    assert CoreModel(xt3()).dgemm_gflops() == pytest.approx(4.4, rel=0.02)
    assert CoreModel(xt4("SN")).dgemm_gflops() == pytest.approx(4.78, rel=0.02)


def test_fft_rates_match_paper_fig4():
    # Fig. 4: XT3 ~0.52, XT4-SN ~0.65 GFLOPS (model: 0.55 / 0.65).
    assert CoreModel(xt3()).fft_gflops() == pytest.approx(0.55, rel=0.05)
    assert CoreModel(xt4("SN")).fft_gflops() == pytest.approx(0.65, rel=0.05)


def test_vn_mode_uses_both_cores_as_default_active():
    sn = CoreModel(xt4("SN"))
    vn = CoreModel(xt4("VN"))
    assert vn.default_active_cores == 2
    assert sn.default_active_cores == 1
    assert vn.stream_triad_GBs() < sn.stream_triad_GBs()


def test_explicit_active_cores_override():
    vn = CoreModel(xt4("VN"))
    assert vn.stream_triad_GBs(active_cores=1) == CoreModel(xt4("SN")).stream_triad_GBs()


def test_random_access_gups_vn_halves():
    sn = CoreModel(xt4("SN"))
    vn = CoreModel(xt4("VN"))
    assert vn.random_access_gups() == pytest.approx(sn.random_access_gups() / 2)


def test_profile_accepts_name_or_instance():
    from repro.machine.configs import PROFILES

    cm = CoreModel(xt4("SN"))
    assert cm.rate_gflops("dgemm") == cm.rate_gflops(PROFILES["dgemm"])


def test_time_s_inverse_of_rate():
    cm = CoreModel(xt4("SN"))
    t = cm.time_s(1.0e9, "dgemm")
    assert t == pytest.approx(1.0 / cm.dgemm_gflops())


def test_memory_model_is_built_once_and_stays_out_of_equality():
    machine = xt4("VN")
    used, fresh = CoreModel(machine), CoreModel(machine)
    assert used.memory is used.memory
    assert used.memory == fresh.memory
    # Caching the model on ``used`` leaves equality and hash field-based.
    assert used == fresh and hash(used) == hash(fresh)
