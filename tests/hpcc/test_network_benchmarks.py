"""HPCC network benchmarks vs the paper's Figures 2-3, plus DES validation."""

import pytest

from repro.hpcc import PingPong, RingBenchmark
from repro.machine import xt3, xt4


def test_pingpong_latency_values():
    assert PingPong(xt3()).latency_us("min") == pytest.approx(6.05, rel=0.02)
    assert PingPong(xt4("SN")).latency_us("min") == pytest.approx(4.55, rel=0.02)


def test_pingpong_vn_worst_case():
    worst = PingPong(xt4("VN")).latency_us("max")
    assert 15 < worst < 21


def test_pingpong_bandwidth_values():
    assert PingPong(xt3()).bandwidth_GBs() == pytest.approx(1.15, rel=0.02)
    assert PingPong(xt4("SN")).bandwidth_GBs() == pytest.approx(2.1, rel=0.02)


def test_des_latency_matches_model():
    pp = PingPong(xt4("SN"))
    des = pp.run_des(nbytes=8, iters=4)
    model = pp.latency_us("min")
    assert des == pytest.approx(model, rel=0.05)


def test_des_bandwidth_matches_model():
    pp = PingPong(xt4("SN"))
    des_bw = pp.run_des_bandwidth_GBs(nbytes=8_000_000, iters=3)
    assert des_bw == pytest.approx(pp.bandwidth_GBs(), rel=0.05)


def test_des_xt3_slower_than_xt4():
    lat3 = PingPong(xt3()).run_des(iters=3)
    lat4 = PingPong(xt4("SN")).run_des(iters=3)
    assert lat3 > lat4


def test_ring_orderings():
    for machine in (xt3(), xt4("SN"), xt4("VN")):
        ring = RingBenchmark(machine)
        pp = PingPong(machine)
        # Random ring is slower (latency) and thinner (bandwidth) than natural.
        assert ring.random_latency_us() >= ring.natural_latency_us()
        assert ring.random_bandwidth_GBs() <= ring.natural_bandwidth_GBs()
        assert ring.natural_bandwidth_GBs() < pp.bandwidth_GBs()


def test_ring_des_runs_and_orders():
    # Exact one-iteration times in microseconds (float.hex), so a unit
    # slip, a receive that is not waited on or an unseeded permutation
    # shows. Seed 1 of six SN ranks happens to time like the natural
    # ring; seed 2 and the 16-rank VN ring do not.
    ring = RingBenchmark(xt4("SN"))
    nat = ring.run_des_natural(ntasks=6, nbytes=1024)
    assert nat.hex() == "0x1.a007cd49a166ep+2"
    rand = ring.run_des_random(ntasks=6, nbytes=1024, seed=1)
    assert rand.hex() == "0x1.a007cd49a166ep+2"
    rand2 = ring.run_des_random(ntasks=6, nbytes=1024, seed=2)
    assert rand2.hex() == "0x1.de721a54d880bp+2"
    # Random permutation spans more hops: should not be faster than natural.
    assert rand2 > nat
    vn = RingBenchmark(xt4("VN"))
    assert vn.run_des_natural(ntasks=6, nbytes=1024).hex() == "0x1.a6cfb9c869536p+3"
    assert vn.run_des_random(ntasks=16, nbytes=1024, seed=1).hex() == (
        "0x1.223989ff0656dp+4"
    )


def test_ring_des_receives_every_message(monkeypatch):
    # Every rank receives from both neighbours. A receive that is called
    # but not driven (a dropped ``yield from``) times the same, since the
    # rank also waits for its own sends, so count completed receives.
    from repro.mpi.comm import Comm

    received = []
    recv = Comm.recv

    def counted(self, *args, **kwargs):
        obj = yield from recv(self, *args, **kwargs)
        received.append(self.rank)
        return obj

    monkeypatch.setattr(Comm, "recv", counted)
    ring = RingBenchmark(xt4("SN"))
    ring.run_des_natural(ntasks=6, nbytes=1024)
    ring.run_des_random(ntasks=6, nbytes=1024, seed=2)
    assert sorted(received) == sorted(list(range(6)) * 4)


def test_ring_validation():
    with pytest.raises(ValueError):
        RingBenchmark(xt4("SN")).run_des_natural(ntasks=1)
    with pytest.raises(ValueError):
        PingPong(xt4("SN")).run_des(iters=0)
