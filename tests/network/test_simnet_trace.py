"""Regression: traced and untraced network diagnostics agree.

:meth:`SimNetwork.hotspot_report` and :meth:`SimNetwork.utilization`
read the in-memory link loads, which every run charges; a tracer adds
``net.link``/``net.nic`` counters on top. Identical runs must produce
identical answers either way.
"""

import pytest

from repro.machine.configs import xt4
from repro.mpi.job import MPIJob
from repro.network.simnet import link_label
from repro.obs import Tracer


def _ring_main(comm):
    """8-node ring: each rank passes 64 KiB around the ring twice."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for lap in range(2):
        yield from comm.sendrecv(b"r" * 65536, dest=right, source=left, tag=lap)
    yield from comm.barrier()
    return comm.wtime()


def _run(tracer=None):
    job = MPIJob(xt4("SN"), 8, tracer=tracer)
    result = job.run(_ring_main)
    return job, result


def test_hotspot_report_identical_across_backends():
    job_plain, res_plain = _run()
    job_traced, res_traced = _run(Tracer())
    assert res_plain.elapsed_s == res_traced.elapsed_s
    plain = job_plain.network.hotspot_report(top=100)
    traced = job_traced.network.hotspot_report(top=100)
    assert dict(plain) == pytest.approx(dict(traced))
    assert plain, "ring pattern should load some links"
    # The in-memory loads are charged whether or not a tracer is on.
    assert job_traced.network.link_bytes == job_plain.network.link_bytes
    assert job_traced.network.link_busy_s == job_plain.network.link_busy_s
    assert job_plain.network.link_bytes != {}


def test_utilization_identical_across_backends():
    job_plain, _ = _run()
    job_traced, _ = _run(Tracer())
    links = [ln for ln, _b in job_plain.network.hotspot_report(top=100)]
    for ln in links:
        assert job_plain.network.utilization(ln) == pytest.approx(
            job_traced.network.utilization(ln)
        )
        assert job_plain.network.utilization(ln) > 0.0


def test_hotspot_report_tie_break_agrees_across_backends():
    """Links with identical byte counts rank by repr(link) on *both*
    backends — without the tie-break the two reports could interleave
    tied links differently and silently disagree."""
    from repro.machine import xt4
    from repro.network import NetworkModel, SimNetwork
    from repro.simengine import Simulator

    def run(tracer=None):
        sim = Simulator(tracer=tracer)
        machine = xt4("SN")
        net = SimNetwork(sim, machine)
        model = NetworkModel(machine)

        def mover(src, dst):
            # One hop each, equal bytes: three exactly-tied links.
            yield from net.transfer(src, dst, 50_000, model.base_latency_s(1))

        for src, dst in ((0, 1), (1, 2), (2, 3)):
            sim.spawn(mover(src, dst))
        sim.run()
        return net.hotspot_report(top=10)

    plain = run()
    traced = run(Tracer())
    assert plain == traced  # same links, same bytes, same ORDER
    byte_counts = {b for _ln, b in plain}
    assert len(byte_counts) == 1, "test requires an actual tie"
    links = [ln for ln, _b in plain]
    assert links == sorted(links, key=repr)


@pytest.mark.parametrize("hybrid", [False, True])
def test_diagnostics_agree_across_backends_in_hybrid_mode(hybrid):
    """A traced run (default hybrid mode) and an untraced run, hybrid or
    full DES, must agree — same links, same bytes, same ORDER — even when
    the fast path skips the resource holds entirely."""
    from repro.network.simnet import hybrid_mode

    with hybrid_mode(hybrid):
        job_plain, res_plain = _run()
    job_traced, res_traced = _run(Tracer())
    assert res_plain.elapsed_s == res_traced.elapsed_s
    plain = job_plain.network.hotspot_report(top=100)
    traced = job_traced.network.hotspot_report(top=100)
    assert [ln for ln, _b in plain] == [ln for ln, _b in traced]
    assert dict(plain) == pytest.approx(dict(traced))
    for ln, _b in plain:
        assert job_plain.network.utilization(ln) == pytest.approx(
            job_traced.network.utilization(ln)
        )


def test_link_counters_total_the_in_memory_loads():
    # The trace file and the in-process diagnostics read one accounting.
    tracer = Tracer()
    job, _ = _run(tracer)
    net = job.network
    assert net.link_bytes
    for ln, nbytes in net.link_bytes.items():
        label = link_label(ln)
        assert tracer.counters[f"net.link[{label}].bytes"].total == nbytes
        assert tracer.counters[f"net.link[{label}].busy_s"].total == (
            pytest.approx(net.link_busy_s[ln])
        )
    links = {n for n in tracer.counters if n.startswith("net.link[")}
    assert len(links) == 2 * len(net.link_bytes)


def test_link_label_is_stable():
    assert link_label(((0, 1, 0), 0, 1)) == "0,1,0.+x"
    assert link_label(((3, 0, 2), 2, -1)) == "3,0,2.-z"
    assert link_label(((1, 2, 3), 1, 1)) == "1,2,3.+y"


def test_transfer_spans_tagged_with_route(tmp_path):
    tracer = Tracer()
    job, _ = _run(tracer)
    xfers = [s for s in tracer.spans if s.name == "net.xfer"]
    assert xfers
    for span in xfers:
        assert {"src", "dst", "bytes"} <= set(span.args)
        assert ("hops" in span.args) != span.args.get("intra_node", False)
