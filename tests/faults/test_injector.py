"""FaultInjector + fault-aware SimNetwork: retransmit, detour, stalls."""

from functools import partial

import pytest

from repro.experiments import ext_resilience as er
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPolicy,
    daly_optimal_interval_s,
)
from repro.machine import xt4
from repro.mpi.job import MPIJob
from repro.network import NetworkModel, SimNetwork
from repro.network.simnet import NetworkUnreachableError
from repro.obs import Tracer
from repro.simengine import Simulator
from repro.simengine.queue import CB, DEAD

#: The +x link out of node 0: the only link on the 0 -> 1 dimension-order route.
LINK_0_PX = ((0, 0, 0), 0, 1)
#: The -x link out of node 0: the first hop of the long way round to node 1.
LINK_0_MX = ((0, 0, 0), 0, -1)


def _net():
    sim = Simulator()
    machine = xt4("SN")
    net = SimNetwork(sim, machine)
    model = NetworkModel(machine)
    return sim, net, model


def _send(sim, net, model, src, dst, nbytes=100_000, out=None):
    def mover():
        yield from net.transfer(src, dst, nbytes, model.base_latency_s(1))
        if out is not None:
            out.append(sim.now)

    sim.spawn(mover(), name=f"xfer{src}->{dst}")


def _isolate_x_ring_of_node0(net):
    """Fail both x-ring directions out of node 0: no detour to node 1."""
    net.fail_link(LINK_0_PX)
    net.fail_link(LINK_0_MX)


# -- fault state bookkeeping --------------------------------------------------

def test_faults_are_off_by_default_and_enable_is_idempotent():
    sim, net, _ = _net()
    assert net.faults is None
    st = net.enable_faults()
    assert net.enable_faults() is st


def test_fail_and_restore_link_roundtrip():
    _, net, _ = _net()
    net.fail_link(LINK_0_PX)
    assert LINK_0_PX in net.faults.failed_links
    net.restore_link(LINK_0_PX)
    assert LINK_0_PX not in net.faults.failed_links


# -- retransmission / detour --------------------------------------------------

def test_transfer_detours_around_a_failed_link():
    sim, net, model = _net()
    net.fail_link(LINK_0_PX)
    done = []
    _send(sim, net, model, 0, 1, out=done)
    sim.run()
    assert done, "transfer must complete via the long way around the ring"
    assert net.faults.reroutes == 1
    assert net.faults.retransmits == 0
    # The failed link was never used; the detour's first hop (-x) was.
    assert net.link_bytes.get(LINK_0_PX) is None
    assert net.link_bytes.get(LINK_0_MX, 0.0) > 0.0


def test_transfer_retransmits_until_the_link_is_restored():
    sim, net, model = _net()
    _isolate_x_ring_of_node0(net)
    # Attempts at latency + 0, 50, 150 us fail; the restore at 200 us
    # lands in the 200 us backoff, and the fourth attempt goes through.
    sim.schedule(200e-6, lambda: net.restore_link(LINK_0_PX))
    done = []
    _send(sim, net, model, 0, 1, out=done)
    sim.run()
    assert done and done[0].hex() == "0x1.a5b46e8305172p-12"
    assert net.faults.retransmits == 3
    assert net.faults.reroutes == 0
    assert net.link_bytes.get(LINK_0_PX, 0.0) > 0.0


def test_transfer_unreachable_after_retries_exhausted():
    sim, net, model = _net()
    _isolate_x_ring_of_node0(net)  # permanently
    _send(sim, net, model, 0, 1)
    with pytest.raises(NetworkUnreachableError, match="0->1"):
        sim.run()
    assert net.faults.retransmits == 6
    assert net.faults.reroutes == 0
    # Latency plus backoffs of 50 us * (1 + 2 + 4 + 8 + 16).
    assert sim.now.hex() == "0x1.978415a3d6338p-10"


def test_nic_stall_delays_transfers_touching_the_node():
    sim, net, model = _net()
    net.stall_nic(0, 1e-3)
    done = []
    _send(sim, net, model, 0, 1, out=done)
    sim.run()
    assert done[0] > 1e-3  # held until the stall window passed, then sent
    assert net.faults.nic_stall_waits == 1


def test_nic_stall_extends_not_shrinks():
    _, net, _ = _net()
    net.stall_nic(4, 2e-3)
    net.stall_nic(4, 1e-3)  # shorter stall must not cut the first short
    assert net.faults.nic_stalled_until[4] == 2e-3


# -- injector dispatch --------------------------------------------------------

def test_injector_fires_plan_events_and_counts():
    sim, net, model = _net()
    plan = FaultPlan([
        FaultEvent(t_s=1e-4, kind="nic_stall", node=2, duration_s=5e-4),
        FaultEvent(t_s=2e-4, kind="mem_throttle", node=3, duration_s=1e-3,
                   factor=2.0),
        FaultEvent(t_s=3e-4, kind="os_noise", node=3, duration_s=1e-4,
                   factor=1.5),
    ])
    inj = FaultInjector(sim, net, plan)
    inj.arm()
    sim.run()
    assert inj.injected == 3
    assert net.faults.nic_stalled_until[2] == pytest.approx(6e-4)
    st = inj.state(3)
    assert st.memory_dilation(5e-4) == pytest.approx(2.0)
    assert st.compute_dilation(3.5e-4) == pytest.approx(1.5)
    assert st.compute_dilation(5e-4) == 1.0  # noise window closed


def test_injector_link_down_with_duration_schedules_restore():
    sim, net, model = _net()
    plan = FaultPlan([
        FaultEvent(t_s=1e-4, kind="link_down", link=LINK_0_PX,
                   duration_s=2e-4),
    ])
    FaultInjector(sim, net, plan).arm()
    sim.run()
    assert sim.now == pytest.approx(3e-4)  # injection + restoration fired
    assert LINK_0_PX not in net.faults.failed_links


def test_overlapping_outages_of_one_link_keep_it_down_until_the_last_ends():
    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    net = SimNetwork(sim, xt4("SN"))
    plan = FaultPlan([
        FaultEvent(t_s=0.0, kind="link_down", link=LINK_0_PX,
                   duration_s=100e-6),
        FaultEvent(t_s=50e-6, kind="link_down", link=LINK_0_PX,
                   duration_s=100e-6),
    ])
    FaultInjector(sim, net, plan).arm()
    down = []
    for t_s in (25e-6, 75e-6, 125e-6, 175e-6):
        sim.schedule(t_s, lambda: down.append(
            LINK_0_PX in net.faults.failed_links))
    sim.run()
    assert down == [True, True, True, False]
    # The counter is the number of links down: one link, never two.
    series = tracer.counters["net.links_down"].series()
    assert [v for _t, v in series] == [1.0, 0.0]
    assert [t for t, _v in series] == pytest.approx([0.0, 150e-6])


def test_permanent_outage_outlives_an_overlapping_finite_one():
    sim, net, _ = _net()
    plan = FaultPlan([
        FaultEvent(t_s=0.0, kind="link_down", link=LINK_0_PX),  # permanent
        FaultEvent(t_s=50e-6, kind="link_down", link=LINK_0_PX,
                   duration_s=100e-6),
    ])
    FaultInjector(sim, net, plan).arm()
    sim.run()
    assert sim.now == pytest.approx(150e-6)
    assert LINK_0_PX in net.faults.failed_links


def test_standalone_node_crash_fails_all_outgoing_links():
    sim, net, _ = _net()
    plan = FaultPlan([FaultEvent(t_s=1e-4, kind="node_crash", node=0)])
    inj = FaultInjector(sim, net, plan)  # no on_node_crash hook
    inj.arm()
    sim.run()
    assert inj.state(0).crashed
    coord = net.torus.coord(0)
    for dim in range(3):
        assert (coord, dim, 1) in net.faults.failed_links
    # A second crash of the same node is a no-op (a node dies once).
    inj._fire(FaultEvent(t_s=1e-4, kind="node_crash", node=0))
    assert inj.injected == 2


def test_cancel_pending_stops_future_injections():
    sim, net, _ = _net()
    plan = FaultPlan([FaultEvent(t_s=10.0, kind="node_crash", node=0)])
    inj = FaultInjector(sim, net, plan)
    inj.arm()
    sim.schedule(1.0, inj.cancel_pending)
    sim.run()
    assert sim.now == 1.0  # the armed crash at t=10 never fired
    assert inj.injected == 0


def test_cancel_pending_cancels_only_entries_still_pending():
    """At the end of a crash-only ext_resilience job the injector cancels
    exactly its entries that are still pending, none that already fired
    (a fired entry leaves the injector's list when it fires)."""
    t_solve = er._run_once(FaultPlan([]), None)
    mtbf = t_solve / 12
    plan = FaultPlan.sample(
        horizon_s=4.0 * t_solve, num_nodes=er.NTASKS,
        node_mtbf_s=mtbf * er.NTASKS, seed=1,
    )
    policy = FaultPolicy(
        checkpoint_interval_s=daly_optimal_interval_s(t_solve / 200.0, mtbf),
        checkpoint_cost_s=t_solve / 200.0,
        restart_cost_s=t_solve / 100.0,
        max_restarts=10_000,
    )
    job = MPIJob(xt4("SN"), er.NTASKS, faults=plan, fault_policy=policy)
    sim, inj = job.sim, job._injector
    sweeps = []

    def own(item):
        cb = item[CB]
        return isinstance(cb, partial) and getattr(cb.func, "__self__", None) is inj

    def recording_cancel_pending(original=inj.cancel_pending):
        pending = [i for i in sim._queue._heap if not i[DEAD] and own(i)]
        cancelled = []

        def cancel(handle):
            cancelled.append((handle, handle[DEAD]))
            Simulator.cancel(sim, handle)

        sim.cancel = cancel
        try:
            original()
        finally:
            del sim.cancel
        sweeps.append((pending, cancelled))

    inj.cancel_pending = recording_cancel_pending
    result = job.run(er._workload)
    assert result.restarts > 1  # several crash groups fired
    [(pending, cancelled)] = sweeps
    assert pending  # the next crash group was armed
    assert sorted(id(h) for h, _ in cancelled) == sorted(map(id, pending))
    assert not any(fired for _, fired in cancelled)


def test_arm_skips_events_already_in_the_past():
    sim, net, _ = _net()
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0
    plan = FaultPlan([
        FaultEvent(t_s=1.0, kind="node_crash", node=0),  # already past
        FaultEvent(t_s=9.0, kind="node_crash", node=1),
    ])
    inj = FaultInjector(sim, net, plan)
    inj.arm()
    sim.run()
    assert inj.injected == 1
    assert not inj.state(0).crashed
    assert inj.state(1).crashed
