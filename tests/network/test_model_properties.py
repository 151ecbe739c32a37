"""Property-based invariants of the analytic network model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import xt3, xt4
from repro.mpi import CollectiveCostModel
from repro.network import NetworkModel


@given(
    hops=st.integers(min_value=0, max_value=30),
    frac=st.floats(min_value=0.0, max_value=1.0),
    nodes=st.integers(min_value=2, max_value=6000),
)
def test_latency_monotone_in_everything(hops, frac, nodes):
    net = NetworkModel(xt4("VN"))
    base = net.base_latency_s(hops, frac, nodes)
    assert base > 0
    assert net.base_latency_s(hops + 1, frac, nodes) >= base
    assert net.base_latency_s(hops, min(1.0, frac + 0.1), nodes) >= base
    assert net.base_latency_s(hops, frac, min(6000, nodes * 2)) >= base


@given(nbytes=st.floats(min_value=0, max_value=1e9))
def test_pt2pt_time_superadditive_in_bytes(nbytes):
    """Sending m bytes then m more is never cheaper than 2m at once
    (latency paid twice)."""
    net = NetworkModel(xt4("SN"))
    once = net.pt2pt_time_s(2 * nbytes)
    twice = 2 * net.pt2pt_time_s(nbytes)
    assert twice >= once - 1e-15


@given(p=st.integers(min_value=2, max_value=20000))
def test_collective_costs_monotone_in_p(p):
    c1 = CollectiveCostModel.for_machine(NetworkModel(xt3()), p)
    c2 = CollectiveCostModel.for_machine(NetworkModel(xt3()), min(20000, 2 * p))
    assert c2.barrier_s() >= c1.barrier_s()
    assert c2.allreduce_s(8) >= c1.allreduce_s(8)
    assert c2.alltoall_s(64) >= c1.alltoall_s(64) * 0.99


@given(job_nodes=st.integers(min_value=1, max_value=6000))
def test_bisection_positive_and_bounded(job_nodes):
    net = NetworkModel(xt4("SN"))
    b = net.bisection_bw_GBs(job_nodes)
    full = net.bisection_bw_GBs(None)
    assert 0 <= b <= full * 1.5  # sub-torus rounding can slightly overshoot


@settings(max_examples=30)
@given(which=st.sampled_from(["min", "avg", "max"]),
       mode=st.sampled_from(["SN", "VN"]))
def test_bandwidth_never_exceeds_injection(which, mode):
    net = NetworkModel(xt4(mode))
    bw = net.pingpong_bandwidth_GBs(which)
    assert 0 < bw <= net.nic.mpi_bw_GBs + 1e-12
