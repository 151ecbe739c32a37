"""Tests for the Lustre simulator: striping, MDS serialization, IOR."""

import pytest
from hypothesis import given, strategies as st

from repro.lustre import (
    IORBenchmark,
    LustreClient,
    LustreConfig,
    LustreFilesystem,
    StripeLayout,
)
from repro.simengine import Simulator


# ------------------------------------------------------------------ striping
def test_stripe_layout_round_robins():
    layout = StripeLayout(stripe_count=4, stripe_size=100, first_ost=0, total_osts=8)
    assert layout.ost_of_offset(0) == 0
    assert layout.ost_of_offset(99) == 0
    assert layout.ost_of_offset(100) == 1
    assert layout.ost_of_offset(399) == 3
    assert layout.ost_of_offset(400) == 0  # wraps around the stripe set


def test_stripe_chunks_cover_range():
    layout = StripeLayout(stripe_count=3, stripe_size=64, first_ost=1, total_osts=4)
    chunks = layout.chunks(offset=10, nbytes=300)
    assert sum(c for _, c in chunks) == 300
    assert all(0 <= ost < 4 for ost, _ in chunks)


def test_stripe_bytes_per_ost_balanced_for_aligned_write():
    layout = StripeLayout(stripe_count=4, stripe_size=1 << 20, first_ost=0, total_osts=4)
    per = layout.bytes_per_ost(4 << 20)
    assert per == [1 << 20] * 4


def test_stripe_validation():
    with pytest.raises(ValueError):
        StripeLayout(0, 100, 0, 4)
    with pytest.raises(ValueError):
        StripeLayout(5, 100, 0, 4)
    with pytest.raises(ValueError):
        StripeLayout(2, 0, 0, 4)
    with pytest.raises(ValueError):
        StripeLayout(2, 100, 4, 4)
    layout = StripeLayout(2, 100, 0, 4)
    with pytest.raises(ValueError):
        layout.ost_of_offset(-1)
    with pytest.raises(ValueError):
        layout.chunks(0, -1)


@given(
    count=st.integers(1, 8),
    size=st.integers(1, 4096),
    nbytes=st.integers(0, 100_000),
)
def test_stripe_chunks_conserve_bytes_property(count, size, nbytes):
    layout = StripeLayout(count, size, 0, 8)
    assert sum(c for _, c in layout.chunks(0, nbytes)) == nbytes


# ------------------------------------------------------------- filesystem
def run_process(gen_fn):
    sim = Simulator()
    fs = LustreFilesystem(sim, LustreConfig(num_oss=4, osts_per_oss=2))
    out = {}

    def main():
        out["result"] = yield from gen_fn(fs)

    sim.spawn(main())
    sim.run()
    return sim, fs, out.get("result")


def test_create_and_open_cost_mds_ops():
    def scenario(fs):
        yield from fs.create("a")
        yield from fs.open("a")
        return fs.mds_ops

    sim, fs, ops = run_process(scenario)
    assert ops == 2
    assert sim.now == pytest.approx(2 * 300e-6)


def test_create_duplicate_rejected():
    def scenario(fs):
        yield from fs.create("a")
        yield from fs.create("a")

    with pytest.raises(FileExistsError):
        run_process(scenario)


def test_open_missing_rejected():
    def scenario(fs):
        yield from fs.open("nope")

    with pytest.raises(FileNotFoundError):
        run_process(scenario)


def test_write_updates_size_and_oss_bytes():
    def scenario(fs):
        f = yield from fs.create("a", stripe_count=2)
        yield from fs.transfer(f, 0, 4 << 20, write=True)
        return f.size

    sim, fs, size = run_process(scenario)
    assert size == 4 << 20
    assert sum(fs.oss_bytes) == 4 << 20


def test_write_time_scales_with_size():
    def scenario_of(nbytes):
        def scenario(fs):
            f = yield from fs.create("a", stripe_count=1)
            t = yield from LustreClient(fs, 0).write(f, 0, nbytes)
            return t

        return scenario

    _, _, t_small = run_process(scenario_of(1 << 20))
    _, _, t_large = run_process(scenario_of(8 << 20))
    assert t_large > t_small


def test_striping_speeds_up_large_write():
    """A stripe-count-4 write engages 4 OSSes concurrently."""

    def scenario_of(count):
        def scenario(fs):
            f = yield from fs.create("a", stripe_count=count)
            t = yield from LustreClient(fs, 0).write(f, 0, 16 << 20)
            return t

        return scenario

    _, _, t1 = run_process(scenario_of(1))
    _, _, t4 = run_process(scenario_of(4))
    assert t4 < t1 / 2


# ------------------------------------------------------------------- IOR
def test_ior_validation():
    bench = IORBenchmark()
    with pytest.raises(ValueError):
        bench.run(0)
    with pytest.raises(ValueError):
        bench.run(2, bytes_per_client=0)
    with pytest.raises(ValueError):
        bench.run(2, pattern="strided")


def test_ior_bandwidth_saturates_at_oss_limit():
    config = LustreConfig(num_oss=4, osts_per_oss=4, oss_bandwidth_GBs=0.35)
    bench = IORBenchmark(config)
    r = bench.run(num_clients=16, bytes_per_client=32 << 20)
    assert r.aggregate_GBs <= config.peak_bandwidth_GBs * 1.01
    assert r.aggregate_GBs > config.peak_bandwidth_GBs * 0.6


def test_ior_bandwidth_scales_with_oss_count():
    small = IORBenchmark(LustreConfig(num_oss=2)).run(16, 16 << 20)
    big = IORBenchmark(LustreConfig(num_oss=8)).run(16, 16 << 20)
    assert big.aggregate_GBs > 2 * small.aggregate_GBs


def test_ior_mds_serializes_file_per_process_creates():
    """Metadata time grows ~linearly with clients: the single-MDS
    bottleneck the paper warns about."""
    bench = IORBenchmark(LustreConfig(num_oss=8))
    meta = [
        bench.run(n, 1 << 20, pattern="file-per-process").metadata_s
        for n in (4, 16, 64)
    ]
    assert meta[1] > 3 * meta[0]
    assert meta[2] > 3 * meta[1]


def test_ior_shared_file_avoids_metadata_storm():
    bench = IORBenchmark(LustreConfig(num_oss=8))
    fpp = bench.run(64, 1 << 20, pattern="file-per-process")
    ssf = bench.run(64, 1 << 20, pattern="single-shared-file")
    assert ssf.metadata_s < fpp.metadata_s / 10
