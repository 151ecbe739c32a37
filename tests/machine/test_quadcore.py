"""Tests for the quad-core projection machine (extension study)."""

import pytest

from repro.hpcc import DGEMMBench, RandomAccessBench, StreamBench
from repro.machine import MemoryModel, xt4
from repro.machine.configs import DDR2_800, xt4_quadcore
from repro.mpi import MPIJob
from repro.network import Placement


def test_quadcore_spec():
    m = xt4_quadcore()
    assert m.node.cores == 4
    assert m.node.processor.peak_gflops_per_core == pytest.approx(8.4)
    assert m.node.memory.peak_bw_GBs == 12.8
    assert m.node.nic.name == "SeaStar2"


def test_quadcore_vn_places_four_tasks_per_node():
    m = xt4_quadcore("VN")
    assert m.tasks_per_node == 4
    p = Placement(m, 8)
    assert p.ranks_on_node(0) == [0, 1, 2, 3]
    assert p.num_nodes_used == 2


def test_quadcore_memory_sharing_four_ways():
    mem = MemoryModel(DDR2_800, cores=4)
    assert mem.stream_triad_GBs(4) == pytest.approx(
        DDR2_800.achievable_bw_GBs / 4
    )
    assert mem.random_access_gups(4) == pytest.approx(
        DDR2_800.random_update_rate_gups / 4
    )


def test_quadcore_per_core_bandwidth_below_dual():
    quad = StreamBench(xt4_quadcore("VN")).ep_GBs()
    dual = StreamBench(xt4("VN")).ep_GBs()
    assert quad < dual  # four cores on a slightly faster bus: thinner slices


def test_quadcore_dgemm_socket_rate_exceeds_dual():
    quad = 4 * DGEMMBench(xt4_quadcore("VN")).ep_gflops()
    dual = 2 * DGEMMBench(xt4("VN")).ep_gflops()
    assert quad > 2 * dual  # 4 cores x 4 flops/cycle


def test_quadcore_ra_per_core_halves_again():
    quad = RandomAccessBench(xt4_quadcore("VN")).ep_gups()
    dual = RandomAccessBench(xt4("VN")).ep_gups()
    assert quad < dual


def test_quadcore_des_job_runs():
    def main(comm):
        total = yield from comm.allreduce(comm.rank)
        return total

    result = MPIJob(xt4_quadcore("VN"), 8).run(main)
    assert result.returns[0] == sum(range(8))
    assert result.elapsed_s > 0
