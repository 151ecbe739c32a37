"""Exact simulated Lustre times, pinned bit for bit.

``results/fig01.csv`` holds only the component table and ``fig01.txt``
rounds the IOR series, so byte-identical ``results/`` cannot show that a
change to the Lustre DES left it unchanged. These values (``float.hex``
of ``elapsed_s`` and ``metadata_s``) were recorded before the per-chunk
OSS processes became a callback chain; any drift in queue order or
arithmetic shows here.
"""

from functools import partial

import pytest

from repro.apps.s3d.checkpoint import CheckpointStudy
from repro.lustre import IORBenchmark, LustreClient, LustreConfig, LustreFilesystem
from repro.obs import Tracer, installed
from repro.simengine import Simulator

FIG01 = LustreConfig(num_oss=8, osts_per_oss=4)
FPP, SSF = "file-per-process", "single-shared-file"

#: (clients, pattern, stripe_count) -> (elapsed_s, metadata_s), fig01's
#: configuration with 16 MiB per client.
IOR_PINS = {
    (4, FPP, None): ("0x1.92835c1ba2543p-6", "0x1.3a92a30553261p-10"),
    (16, FPP, None): ("0x1.8b23ec498261ap-4", "0x1.3a92a30553261p-8"),
    (64, FPP, None): ("0x1.894c1054fa640p-2", "0x1.3a92a30553266p-6"),
    (256, FPP, None): ("0x1.88d61957d8686p+0", "0x1.3a92a30553262p-4"),
    (16, SSF, None): ("0x1.894c1054fa654p-3", "0x1.3a92a30553261p-12"),
    (64, SSF, 32): ("0x1.88fd6bac390f4p-2", "0x1.3a92a30553261p-12"),
    (16, FPP, 3): ("0x1.8c5e7eec87b4cp-4", "0x1.3a92a30553261p-8"),
}

#: (ntasks, pattern) -> (elapsed_s, metadata_s) of one S3D checkpoint.
CHECKPOINT_PINS = {
    (16, FPP): ("0x1.5004c3d8efb9cp-4", "0x1.3a92a30553261p-8"),
    (16, SSF): ("0x1.34031e1dbadd6p-4", "0x1.3a92a30553261p-12"),
    (64, FPP): ("0x1.4e2ce7e467bc8p-2", "0x1.3a92a30553266p-6"),
    (64, SSF): ("0x1.3317302376deep-2", "0x1.3a92a30553261p-12"),
}


def _hex(pair):
    return tuple(float(v).hex() for v in pair)


@pytest.mark.parametrize("clients,pattern,stripes", sorted(IOR_PINS, key=str))
def test_ior_times_are_pinned(clients, pattern, stripes):
    r = IORBenchmark(FIG01).run(clients, 16 << 20, pattern, stripe_count=stripes)
    assert _hex((r.elapsed_s, r.metadata_s)) == IOR_PINS[clients, pattern, stripes]


@pytest.mark.parametrize("ntasks,pattern", sorted(CHECKPOINT_PINS))
def test_checkpoint_times_are_pinned(ntasks, pattern):
    got = CheckpointStudy(ntasks=ntasks).write_time_s(pattern)
    assert _hex(got) == CHECKPOINT_PINS[ntasks, pattern]


def _offset_writes():
    """Two clients write overlapping, stripe-splitting ranges of one file."""
    sim = Simulator()
    fs = LustreFilesystem(sim, LustreConfig(num_oss=4, osts_per_oss=2))
    times = {}

    def main():
        c0, c1 = LustreClient(fs, 0), LustreClient(fs, 1)
        f = yield from c0.create("split", stripe_count=3)
        # Both ranges start mid-stripe, so each splits a 1 MiB stripe.
        p0 = sim.spawn(c0.write(f, (1 << 19) + 12345, 5 << 20))
        p1 = sim.spawn(c1.write(f, (3 << 20) + 777, 3 << 20))
        times["w"] = ((yield p0.done), (yield p1.done))
        times["size"] = f.size

    sim.spawn(main())
    sim.run()
    return sim, fs, times


def test_offset_write_that_splits_stripes_is_pinned():
    sim, fs, times = _offset_writes()
    assert _hex(times["w"]) == ("0x1.88aec70377bb0p-8", "0x1.2683154299cc4p-7")
    assert float(sim.now).hex() == "0x1.3057aa5ac4657p-7"
    assert times["size"] == (3 << 20) + 777 + (3 << 20)
    assert sum(fs.oss_bytes) == (5 << 20) + (3 << 20)


def test_zero_byte_transfer_resumes_at_once():
    sim = Simulator()
    fs = LustreFilesystem(sim, FIG01)
    out, order = {}, []

    def main():
        f = yield from fs.create("empty")
        t0 = sim.now
        sim.schedule(0.0, partial(order.append, "earlier entry"))
        yield from fs.transfer(f, 4096, 0, write=True)
        order.append("writer")
        out["dt"] = sim.now - t0

    sim.spawn(main())
    sim.run()
    assert out["dt"] == 0.0
    # The writer resumes through a queue entry at the same time, behind
    # entries already queued, as a ``Delay(0.0)`` wait does.
    assert order == ["earlier entry", "writer"]
    assert fs.lookup("empty").size == 4096  # a zero-byte write still extends
    assert fs.oss_bytes == [0] * FIG01.num_oss


def test_traced_ior_records_one_hold_per_chunk():
    tracer = Tracer()
    with installed(tracer):
        r = IORBenchmark(FIG01).run(4, 3 << 20, FPP)
    holds = [s for s in tracer.spans if s.name == "res.hold"]
    oss_holds = [s for s in holds if s.track.startswith("res/OSS")]
    # 4 clients x 3 one-MiB stripe chunks, each one hold on its OSS track.
    assert len(oss_holds) == 12
    assert all(s.t1 is not None and s.t1 <= r.elapsed_s for s in oss_holds)
    assert {s.track for s in oss_holds} <= {f"res/OSS{i}" for i in range(8)}
    # The MDS holds are the only other ones: one per create.
    assert len(holds) - len(oss_holds) == 4
