"""Tests for rank placement."""

import pytest

from repro.machine import xt4
from repro.network import Placement


def test_contiguous_sn_one_rank_per_node():
    p = Placement(xt4("SN"), 8)
    assert [p.node_of(r) for r in range(8)] == list(range(8))
    assert all(p.core_of(r) == 0 for r in range(8))
    assert p.num_nodes_used == 8


def test_contiguous_vn_pairs_share_node():
    p = Placement(xt4("VN"), 8)
    assert [p.node_of(r) for r in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert [p.core_of(r) for r in range(8)] == [0, 1] * 4
    assert p.same_node(0, 1)
    assert not p.same_node(1, 2)
    assert p.num_nodes_used == 4


def test_hops_zero_for_colocated():
    p = Placement(xt4("VN"), 4)
    assert p.hops(0, 1) == 0
    assert p.hops(0, 2) >= 1


def test_tasks_sharing_nic():
    vn = Placement(xt4("VN"), 8)
    sn = Placement(xt4("SN"), 8)
    assert vn.tasks_sharing_nic(0) == 2
    assert sn.tasks_sharing_nic(0) == 1
    # Odd task count: last VN node holds one task.
    odd = Placement(xt4("VN"), 5)
    assert odd.tasks_sharing_nic(4) == 1


@pytest.mark.parametrize("mode", ["SN", "VN"])
@pytest.mark.parametrize("strategy", ["contiguous", "random"])
def test_tasks_sharing_nic_counts_ranks_on_node(mode, strategy):
    # 13 tasks: in VN the last node holds a single task.
    p = Placement(xt4(mode), 13, strategy=strategy, seed=3)
    for r in range(13):
        assert p.tasks_sharing_nic(r) == len(p.ranks_on_node(p.node_of(r)))


def test_random_placement_is_seeded_permutation():
    a = Placement(xt4("SN"), 32, strategy="random", seed=7)
    b = Placement(xt4("SN"), 32, strategy="random", seed=7)
    c = Placement(xt4("SN"), 32, strategy="random", seed=8)
    nodes_a = [a.node_of(r) for r in range(32)]
    assert nodes_a == [b.node_of(r) for r in range(32)]
    assert nodes_a != [c.node_of(r) for r in range(32)]
    assert sorted(nodes_a) == list(range(32))


def test_validation():
    with pytest.raises(ValueError):
        Placement(xt4("SN"), 0)
    with pytest.raises(ValueError):
        Placement(xt4("SN"), 10, strategy="hilbert")
    m = xt4("SN")
    with pytest.raises(ValueError):
        Placement(m, m.max_tasks + 1)


def test_ranks_on_node():
    p = Placement(xt4("VN"), 6)
    assert p.ranks_on_node(0) == [0, 1]
    assert p.ranks_on_node(2) == [4, 5]
