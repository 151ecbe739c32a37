"""Tests for machine configs, Table 1 regeneration, and comparison platforms."""

import pytest

from repro.machine import PLATFORMS, table1_rows, xt3, xt3_dc, xt4
from repro.machine.platforms import platform_from_machine


def test_table1_has_three_systems_in_order():
    rows = table1_rows()
    assert [r["system"] for r in rows] == ["XT3", "XT3-DC", "XT4"]


def test_table1_values():
    rows = {r["system"]: r for r in table1_rows()}
    assert rows["XT3"]["processor_sockets"] == 5212
    assert rows["XT3"]["processor_cores"] == 5212
    assert rows["XT3-DC"]["processor_cores"] == 10424
    assert rows["XT4"]["processor_sockets"] == 6296
    assert rows["XT4"]["processor_cores"] == 12592
    assert rows["XT3"]["memory"] == "DDR-400"
    assert rows["XT4"]["memory"] == "DDR2-667"
    assert rows["XT4"]["network_injection_bandwidth_GBs"] == 4.0
    assert rows["XT3"]["network_injection_bandwidth_GBs"] == 2.2
    assert rows["XT4"]["interconnect"] == "SeaStar2"


def test_platforms_present():
    assert set(PLATFORMS) == {"X1E", "EarthSimulator", "p690", "p575", "SP"}


def test_platform_peak_rates_match_paper():
    assert PLATFORMS["X1E"].peak_gflops_per_proc == 18.0
    assert PLATFORMS["EarthSimulator"].peak_gflops_per_proc == 8.0
    assert PLATFORMS["p690"].peak_gflops_per_proc == 5.2
    assert PLATFORMS["p575"].peak_gflops_per_proc == 7.6
    assert PLATFORMS["SP"].peak_gflops_per_proc == 1.5


def test_platform_sizes_match_paper():
    assert PLATFORMS["X1E"].total_procs == 1024
    assert PLATFORMS["EarthSimulator"].num_nodes == 640
    assert PLATFORMS["p690"].num_nodes == 27
    assert PLATFORMS["p575"].num_nodes == 122
    assert PLATFORMS["SP"].num_nodes == 184


def test_vector_penalty_only_below_critical_length():
    x1e = PLATFORMS["X1E"]
    assert x1e.vector_penalty(256) == 1.0
    assert x1e.vector_penalty(128) == 1.0
    assert x1e.vector_penalty(64) == pytest.approx(0.5)
    assert x1e.vector_penalty(1) >= 0.25  # floored


def test_scalar_platform_has_no_vector_penalty():
    assert PLATFORMS["p575"].vector_penalty(1) == 1.0


def test_platform_from_machine_sn_vs_vn():
    sn = platform_from_machine(xt4("SN"))
    vn = platform_from_machine(xt4("VN"))
    assert sn.procs_per_node == 1
    assert vn.procs_per_node == 2
    assert vn.mpi_latency_us > sn.mpi_latency_us
    assert vn.mpi_bw_GBs == pytest.approx(sn.mpi_bw_GBs / 2)
    assert vn.total_procs == 2 * sn.total_procs


def test_xt3_dual_core_upgrade_kept_memory():
    assert xt3_dc().node.memory == xt3().node.memory
    assert xt3_dc().node.nic == xt3().node.nic
    assert xt3_dc().node.processor.clock_ghz == 2.6
