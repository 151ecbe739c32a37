"""Executes a :class:`~repro.faults.plan.FaultPlan` against a live sim.

The injector schedules one cancellable simulator callback per plan event
(plus link-restoration callbacks for finite outages), pushed one time
group at a time (see :meth:`FaultInjector.arm`). Every injection bumps
the ``faults.injected`` tracer counter and drops a zero-duration
``fault.<kind>`` instant on the ``faults`` track, so exported traces show
exactly when and where the machine was perturbed.

Node crashes are delegated to an ``on_node_crash(node)`` callback when
one is given (an :class:`~repro.mpi.job.MPIJob` passes its recovery
hook); without a callback the crash is modeled at the network level by
permanently failing the node's outgoing links.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.state import NodeFaultState

from repro.network.simnet import SimNetwork
from repro.simengine import Simulator


class FaultInjector:
    """Arms a plan's events on a simulator and dispatches them."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        plan: FaultPlan,
        *,
        on_node_crash: Optional[Callable[[int], None]] = None,
        node_states: Optional[Dict[int, NodeFaultState]] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.plan = plan
        self.on_node_crash = on_node_crash
        #: Shared per-node degradation registry (the owning job reads it).
        self.node_states: Dict[int, NodeFaultState] = (
            node_states if node_states is not None else {}
        )
        #: Entry number → handle of every pushed entry not yet fired; an
        #: entry leaves when it fires, so only live ones get cancelled.
        self._handles: Dict[int, Any] = {}
        self._entries = 0  # entry numbers handed out
        self._unarmed: deque = deque()  # (time arm() would push, event)
        self._freezes_seen = 0  # len(sim.freeze_log) at arm()
        self.injected = 0

    def state(self, node: int) -> NodeFaultState:
        st = self.node_states.get(node)
        if st is None:
            st = self.node_states[node] = NodeFaultState()
        return st

    # -- lifecycle ---------------------------------------------------------
    def arm(self) -> None:
        """Schedule the not-yet-past plan events one time group at a time,
        each group's first entry pushing the next at ``now + (t_s - now)``
        plus every freeze since ``arm()``, added left to right as
        :meth:`EventQueue.shift_all` does: bit for bit where an entry
        pending all along would be."""
        now = self.sim.now
        self._freezes_seen = len(self.sim.freeze_log)
        self._unarmed = deque([
            (now + (ev.t_s - now), ev) for ev in self.plan if ev.t_s >= now
        ])
        self._arm_next_group()

    def _arm_next_group(self) -> None:
        unarmed = self._unarmed
        if not unarmed:
            return
        sim = self.sim
        group_t = t = unarmed[0][0]
        for d in sim.freeze_log[self._freezes_seen:]:
            t += d
        first = True
        while unarmed and unarmed[0][0] == group_t:
            ev = unarmed.popleft()[1]
            entry = self._entries = self._entries + 1
            self._handles[entry] = sim.schedule_at(
                t, partial(self._fire, ev, first, entry)
            )
            first = False

    def cancel_pending(self) -> None:
        """Cancel all not-yet-fired injections (and pending restorations).

        Called when the observed job completes, so leftover fault events
        cannot keep the simulation clock running past the job's end.
        """
        for h in self._handles.values():
            self.sim.cancel(h)
        self._handles.clear()
        self._unarmed.clear()

    # -- dispatch ----------------------------------------------------------
    def _fire(
        self, ev: FaultEvent, arms_next: bool = False, entry: int = 0
    ) -> None:
        self._handles.pop(entry, None)
        if arms_next:
            self._arm_next_group()
        self.injected += 1
        now = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.add("faults.injected", now, 1)
            args = {"kind": ev.kind}
            if ev.node is not None:
                args["node"] = ev.node
            if ev.link is not None:
                args["link"] = repr(ev.link)
            if ev.duration_s:
                args["duration_s"] = ev.duration_s
            tracer.instant("faults", f"fault.{ev.kind}", now, **args)
        getattr(self, f"_inject_{ev.kind}")(ev)

    def _inject_link_down(self, ev: FaultEvent) -> None:
        self.network.fail_link(ev.link)
        if ev.duration_s:
            entry = self._entries = self._entries + 1
            self._handles[entry] = self.sim.schedule(
                ev.duration_s, partial(self._restore, ev.link, entry)
            )

    def _restore(self, link: Any, entry: int) -> None:
        del self._handles[entry]
        self.network.restore_link(link)

    def _inject_nic_stall(self, ev: FaultEvent) -> None:
        self.network.stall_nic(ev.node, self.sim.now + ev.duration_s)

    def _inject_mem_throttle(self, ev: FaultEvent) -> None:
        self.state(ev.node).throttle_memory(
            ev.factor, self.sim.now + ev.duration_s
        )

    def _inject_os_noise(self, ev: FaultEvent) -> None:
        self.state(ev.node).add_noise(ev.factor, self.sim.now + ev.duration_s)

    def _inject_node_crash(self, ev: FaultEvent) -> None:
        if self.on_node_crash is not None:
            # The job decides: abort, or rewind to checkpoint and degrade.
            self.on_node_crash(ev.node)
            return
        st = self.state(ev.node)
        if st.crashed:
            return  # a node only dies once
        # No job attached: model the crash as the node falling off the
        # network — all its outgoing links fail permanently.
        st.crashed = True
        torus = self.network.torus
        c = torus.coord(ev.node)
        for d in range(3):
            if torus.dims[d] == 1:
                continue
            directions = (1,) if torus.dims[d] == 2 else (1, -1)
            for direction in directions:
                self.network.fail_link((c, d, direction))
