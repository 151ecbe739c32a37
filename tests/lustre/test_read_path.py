"""Tests for the Lustre read path and mixed read/write workloads."""

import pytest

from repro.lustre import LustreClient, LustreConfig, LustreFilesystem
from repro.simengine import Simulator


def run_scenario(gen_fn, config=None):
    sim = Simulator()
    fs = LustreFilesystem(sim, config or LustreConfig(num_oss=4, osts_per_oss=2))
    out = {}

    def main():
        out["result"] = yield from gen_fn(fs)

    sim.spawn(main())
    sim.run()
    return sim, fs, out.get("result")


def test_read_after_write_tracks_client_counters():
    def scenario(fs):
        client = LustreClient(fs, 0)
        f = yield from client.create("data", stripe_count=2)
        yield from client.write(f, 0, 2 << 20)
        t_read = yield from client.read(f, 0, 1 << 20)
        return client, t_read

    _, _, (client, t_read) = run_scenario(scenario)
    assert client.bytes_written == 2 << 20
    assert client.bytes_read == 1 << 20
    assert t_read > 0


def test_read_and_write_contend_for_the_same_oss():
    """A reader and a writer hitting one stripe serialize at its OSS."""

    def solo(fs):
        c = LustreClient(fs, 0)
        f = yield from c.create("a", stripe_count=1)
        t = yield from c.write(f, 0, 8 << 20)
        return t

    _, _, t_solo = run_scenario(solo)

    def contended(fs):
        c1, c2 = LustreClient(fs, 0), LustreClient(fs, 1)
        f = yield from c1.create("a", stripe_count=1)
        p1 = fs.sim.spawn(c1.write(f, 0, 8 << 20))
        p2 = fs.sim.spawn(c2.read(f, 0, 8 << 20))
        times = [(yield p1.done), (yield p2.done)]
        return max(times)

    _, _, t_both = run_scenario(contended)
    assert t_both == pytest.approx(2 * t_solo, rel=0.05)


def test_offset_reads_hit_the_right_osts():
    def scenario(fs):
        c = LustreClient(fs, 0)
        f = yield from c.create("a", stripe_count=4)
        yield from c.write(f, 0, 4 << 20)
        before = list(fs.oss_bytes)
        # Read exactly the second 1 MiB stripe: one OST, hence one OSS.
        yield from c.read(f, 1 << 20, 1 << 20)
        delta = [b - a for a, b in zip(before, fs.oss_bytes)]
        return delta

    _, fs, delta = run_scenario(scenario)
    assert sum(1 for d in delta if d > 0) == 1
    assert sum(delta) == 1 << 20


def test_zero_byte_transfer_is_free():
    def scenario(fs):
        c = LustreClient(fs, 0)
        f = yield from c.create("a")
        t = yield from c.write(f, 0, 0)
        return t

    _, _, t = run_scenario(scenario)
    assert t == 0.0


def test_negative_transfer_rejected():
    def scenario(fs):
        c = LustreClient(fs, 0)
        f = yield from c.create("a")
        yield from c.write(f, 0, -1)

    with pytest.raises(ValueError):
        run_scenario(scenario)
