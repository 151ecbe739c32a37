"""Tests for hardware spec dataclasses and Machine derived quantities."""

import pytest

from repro.machine import Machine, Mode, xt3, xt3_dc, xt4
from repro.machine.configs import PUBLISHED_SOCKETS, xt3_xt4_combined
from repro.machine.modes import parse_mode
from repro.machine.specs import WorkloadProfile


def test_peak_gflops_per_core():
    assert xt3().node.processor.peak_gflops_per_core == pytest.approx(4.8)
    assert xt4().node.processor.peak_gflops_per_core == pytest.approx(5.2)


def test_table1_constants_match_paper():
    assert xt3().node.memory.peak_bw_GBs == 6.4
    assert xt4().node.memory.peak_bw_GBs == 10.6
    assert xt3().node.nic.injection_bw_GBs == 2.2
    assert xt4().node.nic.injection_bw_GBs == 4.0
    assert xt3().node.cores == 1
    assert xt3_dc().node.cores == 2
    assert xt4().node.cores == 2


def test_memory_capacity_is_2gb_per_core():
    for m in (xt3(), xt3_dc(), xt4()):
        assert m.node.memory_capacity_gb_per_core == 2.0
    assert xt4().node.memory_capacity_gb == 4.0
    assert xt3().node.memory_capacity_gb == 2.0


def test_torus_encloses_published_sockets():
    assert xt3().num_nodes >= PUBLISHED_SOCKETS["XT3"]
    assert xt4().num_nodes >= PUBLISHED_SOCKETS["XT4"]


def test_tasks_per_node_follows_mode():
    assert xt4(Mode.SN).tasks_per_node == 1
    assert xt4(Mode.VN).tasks_per_node == 2
    assert xt3(Mode.VN).tasks_per_node == 1  # single-core: VN == SN


def test_with_mode_returns_new_machine():
    sn = xt4("SN")
    vn = sn.with_mode("VN")
    assert sn.mode is Mode.SN
    assert vn.mode is Mode.VN
    assert vn.name == sn.name


def test_parse_mode_accepts_strings_case_insensitively():
    assert parse_mode("sn") is Mode.SN
    assert parse_mode("Vn") is Mode.VN
    assert parse_mode(Mode.SN) is Mode.SN
    with pytest.raises(ValueError):
        parse_mode("dual")


def test_nodes_for_tasks():
    m = xt4("VN")
    assert m.nodes_for_tasks(1) == 1
    assert m.nodes_for_tasks(2) == 1
    assert m.nodes_for_tasks(3) == 2
    assert xt4("SN").nodes_for_tasks(10) == 10


def test_nodes_for_tasks_capacity_check():
    m = xt4("SN")
    with pytest.raises(ValueError):
        m.nodes_for_tasks(m.max_tasks + 1)
    with pytest.raises(ValueError):
        m.nodes_for_tasks(0)


def test_combined_system_larger_than_either():
    combined = xt3_xt4_combined()
    assert combined.num_nodes > xt4().num_nodes
    assert combined.max_tasks >= 22000  # POP runs out to 22k tasks


def test_workload_profile_validation():
    with pytest.raises(ValueError):
        WorkloadProfile("bad", bytes_per_flop=-1, compute_efficiency=0.5)
    with pytest.raises(ValueError):
        WorkloadProfile("bad", bytes_per_flop=0.1, compute_efficiency=0.0)
    with pytest.raises(ValueError):
        WorkloadProfile("bad", bytes_per_flop=0.1, compute_efficiency=1.5)


def test_invalid_torus_dims_rejected():
    node = xt4().node
    with pytest.raises(ValueError):
        Machine(name="bad", node=node, torus_dims=(0, 2, 2))


def test_mpi_bw_matches_paper_pingpong():
    # Fig. 3: XT3 ping-pong ~1.15 GB/s, XT4 just over 2 GB/s.
    assert xt3().node.nic.mpi_bw_GBs == pytest.approx(1.15, rel=0.02)
    assert xt4().node.nic.mpi_bw_GBs == pytest.approx(2.1, rel=0.02)
