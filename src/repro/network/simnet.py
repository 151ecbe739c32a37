"""Discrete-event SeaStar network with explicit NIC and link contention.

A message transfer is a simulation process that

1. waits out the end-to-end latency (computed by the caller, typically
   from :class:`~repro.network.model.NetworkModel`, so VN NIC-sharing
   surcharges are included);
2. acquires the source NIC injection port, every directed torus link on
   the dimension-order route, and the destination NIC ejection port —
   in a single global canonical order, which makes the acquisition
   deadlock-free by construction;
3. holds them all for ``nbytes / bottleneck_bandwidth`` — a pipelined
   (wormhole-like) occupancy model: concurrent messages sharing any
   segment serialize exactly once.

Intra-node messages (two cores of one socket, VN mode) bypass the NIC:
Catamount implements them as a memory copy (paper §2).

That process is the full-DES reference (:meth:`SimNetwork.transfer`). In
hybrid mode the MPI layer runs an uncontended message as a keyed
callback chain over the same steps (:class:`repro.mpi.comm.Comm`): it
claims an idle route with :meth:`SimNetwork.claim_idle`, completes with
:meth:`SimNetwork.settle` (charge, release, count; :meth:`SimNetwork.carry`
completes with it too), and continues a busy or faulted message in
:meth:`SimNetwork.carry`. A tracer leaves the fast path open: traced and
untraced runs execute the same events.

:meth:`SimNetwork.settle` charges every completed hold to its links'
in-memory ``[bytes, busy seconds]`` loads, which
:meth:`SimNetwork.hotspot_report` and :meth:`SimNetwork.utilization`
read. When the simulator carries a :class:`~repro.obs.tracer.Tracer`,
it also adds the hold to the tracer counters ``net.link[x,y,z.+d].bytes``
/ ``.busy_s`` and ``net.nic[n].tx_bytes`` / ``.rx_bytes`` / ``.busy_s``.
The MPI layer records each message's ``net.xfer`` span.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.machine.specs import GIGA, MICRO, Machine
from repro.network.topology import Link, Torus3D
from repro.simengine import Delay, Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Counter

#: CAL: latency of the Catamount intra-socket memory-copy message path.
INTRA_NODE_LATENCY_US = 0.8

#: SeaStar-style retransmission discipline of a transfer whose route
#: crosses a failed link: wait ``RETRY_TIMEOUT_S * BACKOFF_FACTOR**i``
#: after the ``i``-th failed attempt, give up after ``MAX_RETRIES``.
RETRY_TIMEOUT_S = 50e-6
BACKOFF_FACTOR = 2.0
MAX_RETRIES = 6

#: Default for :class:`SimNetwork`'s hybrid analytic/DES fast path
#: (SMPI practice, see docs/PERFORMANCE.md). Module-global like the
#: installed tracer, so drivers constructed deep inside ``repro run``
#: pick up a ``hybrid_mode()`` override.
_HYBRID_DEFAULT = True


def _set_hybrid_default(enabled: bool) -> bool:
    """Set the hybrid mode of new :class:`SimNetwork` instances; returns
    the previous mode. Callers use :func:`hybrid_mode`."""
    global _HYBRID_DEFAULT
    previous = _HYBRID_DEFAULT
    _HYBRID_DEFAULT = bool(enabled)
    return previous


#: Process-wide transfer totals summed over every :class:`SimNetwork`
#: since the last reset. Networks are constructed deep inside driver
#: sweeps (one per ``MPIJob``), so per-driver fast-path counts read
#: these aggregates instead of chasing instances.
_FAST_TRANSFERS = 0
_TRANSFERS = 0


def transfer_totals() -> Tuple[int, int]:
    """``(fast_transfers, transfers_completed)`` summed across every
    network since the last :func:`reset_transfer_totals`."""
    return _FAST_TRANSFERS, _TRANSFERS


def reset_transfer_totals() -> Tuple[int, int]:
    """Zero the process-wide transfer totals; returns the old values."""
    global _FAST_TRANSFERS, _TRANSFERS
    previous = (_FAST_TRANSFERS, _TRANSFERS)
    _FAST_TRANSFERS = 0
    _TRANSFERS = 0
    return previous


@contextmanager
def hybrid_mode(enabled: bool):
    """Context manager: networks constructed inside use ``enabled`` as
    their hybrid fast-path default. Used by the equivalence tests to run
    the same experiment with the fast path forced on and forced off."""
    previous = _set_hybrid_default(enabled)
    try:
        yield
    finally:
        _set_hybrid_default(previous)


class NetworkUnreachableError(RuntimeError):
    """A transfer exhausted its retransmissions without finding a route."""


class NetworkFaultState:
    """Mutable fault state of a :class:`SimNetwork`, attached when the
    first link or NIC fault fires.

    Tracks which directed links are down (counting overlapping outages
    of one link, so it comes back only when the last one ends) and until
    when each node's NIC is stalled. A transfer whose dimension-order
    route crosses a failed link first tries the long way around the
    failed ring (:meth:`~repro.network.topology.Torus3D.route_avoiding`);
    when that is blocked too it waits ``RETRY_TIMEOUT_S`` (doubling each
    retransmission) and tries again — the link may have been restored
    meanwhile — and after ``MAX_RETRIES`` attempts raises
    :class:`NetworkUnreachableError`.

    All counts are plain integers so diagnostics work without a tracer.
    """

    def __init__(self) -> None:
        #: Down link → number of outages currently holding it down.
        self.failed_links: Dict[Link, int] = {}
        #: Node → simulated time until which its NIC accepts no traffic.
        self.nic_stalled_until: Dict[int, float] = {}
        self.retransmits = 0
        self.reroutes = 0
        self.nic_stall_waits = 0


def link_label(link: Link) -> str:
    """Deterministic human-readable label for a directed link.

    ``((x, y, z), dim, direction)`` → ``"x,y,z.+d"`` — e.g. the +x link
    out of node (0, 1, 0) is ``"0,1,0.+x"``. Used in tracer counter
    names, so it must stay stable across releases.
    """
    (x, y, z), dim, direction = link
    return f"{x},{y},{z}.{'+' if direction > 0 else '-'}{'xyz'[dim]}"


class _Port:
    """A NIC port or directed link: one slot and a FIFO of the grants
    waiting for it. :meth:`SimNetwork.claim_idle`, :meth:`SimNetwork.carry`
    and :meth:`SimNetwork.settle` are its only users; its load is in the
    ``net.link`` / ``net.nic`` counters."""

    __slots__ = ("sim", "name", "held", "_waiters", "_grant_name")

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        # Formatted once: request() is the hottest non-engine call in a
        # contended DES bench.
        self._grant_name = f"{name}.grant"
        self.held = False
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        """An event that succeeds when the slot is granted. A requester
        interrupted while still queued withdraws (the event's abandon
        hook), so a slot is never handed to a process that cannot
        consume it."""
        evt = Event(self.sim, self._grant_name)
        if self.held:
            evt.on_abandon(self._waiters.remove)
            self._waiters.append(evt)
        else:
            self.held = True
            evt.succeed(self)
        return evt

    def release(self) -> None:
        """Free the slot, handing it straight to the longest waiter."""
        if not self.held:
            raise RuntimeError(f"release() of idle port {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self.held = False


#: A route, its ports in canonical acquisition order, and its links'
#: ``[bytes, busy seconds]`` load lists.
Path = Tuple[List[Link], List[_Port], List[List[float]]]


class SimNetwork:
    """Message-granularity discrete-event network for a machine."""

    def __init__(self, sim: Simulator, machine: Machine) -> None:
        self.sim = sim
        self.machine = machine
        self.torus = Torus3D(machine.torus_dims)
        self._tracer = sim.tracer
        #: Hybrid analytic/DES mode: MPI messages on an *uncontended*
        #: route run as a keyed callback chain that claims every slot at
        #: once and schedules one completion, instead of a process making
        #: request/hold/release steps (see :func:`hybrid_mode` and
        #: :meth:`fast_path_open`). Byte-identical to full DES: the chain
        #: pushes the same queue entries, claims the same slots and hands
        #: off to :meth:`carry` the moment its route is busy or a link or
        #: NIC fault has fired.
        self.hybrid = _HYBRID_DEFAULT
        #: Transfers completed via the hybrid fast path (diagnostics).
        self.fast_transfers = 0
        #: (src, dst) → path: (dimension-order route, ports in
        #: canonical acquisition order, the route's link loads).
        #: Fault-free routes are static, so both paths reuse them instead
        #: of re-routing and re-sorting per message.
        self._path_cache: Dict[Tuple[int, int], Path] = {}
        self._nic_tx: Dict[int, _Port] = {}
        self._nic_rx: Dict[int, _Port] = {}
        self._links: Dict[Link, _Port] = {}
        # Machine-static path bandwidths in bytes/s, computed once: the
        # per-transfer hold time is nbytes / bandwidth.
        self._path_bw_Bs = self.bottleneck_bw_GBs() * GIGA
        self._intra_bw_Bs = self.intranode_bw_GBs() * GIGA
        #: Directed link → its ``bytes`` and ``busy_s`` tracer counters;
        #: (node, ``"tx"``/``"rx"``) → that NIC direction's bytes counter
        #: and the node's ``busy_s`` counter. Each is looked up on its
        #: first charge, so counters are created in charge order and a
        #: traced transfer formats no counter name.
        self._link_counters: Dict[Link, Tuple[Counter, Counter]] = {}
        self._nic_counters: Dict[Tuple[int, str], Tuple[Counter, Counter]] = {}
        #: Count of completed transfers (diagnostics).
        self.transfers_completed = 0
        #: Directed link → its load, ``[bytes carried, busy seconds]``:
        #: the accounting behind :attr:`link_bytes`, :attr:`link_busy_s`
        #: and the diagnostics. A path holds its links' load lists, so a
        #: completed transfer adds to them without a lookup.
        self._link_load: Dict[Link, List[float]] = {}
        #: Fault state; ``None`` until the first link or NIC fault fires
        #: (:meth:`fail_link`, :meth:`stall_nic`). Until then transfers
        #: keep the cached route and the fast path: node crashes, memory
        #: throttles and OS noise act through the job, never the network.
        self.faults: Optional[NetworkFaultState] = None

    # -- faults ---------------------------------------------------------------
    def enable_faults(self) -> NetworkFaultState:
        """Attach (or return the existing) :class:`NetworkFaultState`."""
        if self.faults is None:
            self.faults = NetworkFaultState()
        return self.faults

    def fail_link(self, link: Link) -> None:
        """Start one outage of a directed link; in-flight holds finish,
        new routes retransmit/detour around it."""
        failed = self.enable_faults().failed_links
        outages = failed.get(link, 0)
        failed[link] = outages + 1
        if outages == 0 and self._tracer is not None:
            self._tracer.add("net.links_down", self.sim.now, 1)

    def restore_link(self, link: Link) -> None:
        """End one outage of a failed link; it is back in service once no
        overlapping outage still holds it down."""
        if self.faults is None or link not in self.faults.failed_links:
            return
        failed = self.faults.failed_links
        failed[link] -= 1
        if failed[link] == 0:
            del failed[link]
            if self._tracer is not None:
                self._tracer.add("net.links_down", self.sim.now, -1)

    def stall_nic(self, node: int, until_s: float) -> None:
        """Stall ``node``'s NIC: transfers touching it wait until ``until_s``."""
        faults = self.enable_faults()
        faults.nic_stalled_until[node] = max(
            faults.nic_stalled_until.get(node, 0.0), float(until_s)
        )

    # -- ports (lazily created: machines have thousands of nodes) -----------
    def nic_tx(self, node: int) -> _Port:
        if node not in self._nic_tx:
            self._nic_tx[node] = _Port(self.sim, f"nic_tx[{node}]")
        return self._nic_tx[node]

    def nic_rx(self, node: int) -> _Port:
        if node not in self._nic_rx:
            self._nic_rx[node] = _Port(self.sim, f"nic_rx[{node}]")
        return self._nic_rx[node]

    def link(self, link: Link) -> _Port:
        if link not in self._links:
            self._links[link] = _Port(self.sim, f"link{link}")
        return self._links[link]

    def held_ports(self) -> List[str]:
        """Names of the ports still held: after a finished job, the
        leaks a sanitizing :class:`~repro.mpi.MPIJob` reports."""
        return [
            port.name
            for ports in (self._nic_tx, self._nic_rx, self._links)
            for port in ports.values()
            if port.held
        ]

    # -- bandwidths -----------------------------------------------------------
    def bottleneck_bw_GBs(self) -> float:
        """Per-message path bandwidth: injection derated by MPI efficiency,
        capped by the sustained link rate."""
        nic = self.machine.node.nic
        return min(nic.mpi_bw_GBs, nic.sustained_link_bw_GBs)

    def intranode_bw_GBs(self) -> float:
        """Memory-copy bandwidth for intra-socket messages (read + write
        through the shared controller: half the achievable socket rate)."""
        return self.machine.node.memory.achievable_bw_GBs / 2.0

    # -- tracing ---------------------------------------------------------------
    def _charge_link(self, ln: Link, nbytes: float, hold_s: float) -> None:
        """Record one link's share of a completed hold on the tracer."""
        counters = self._link_counters.get(ln)
        if counters is None:
            label = link_label(ln)
            counters = self._link_counters[ln] = (
                self._tracer.counter(f"net.link[{label}].bytes"),
                self._tracer.counter(f"net.link[{label}].busy_s"),
            )
        now = self.sim.now
        counters[0].add(now, nbytes)
        counters[1].add(now, hold_s)

    def _nic(self, node: int, direction: str) -> Tuple[Counter, Counter]:
        """The ``<direction>_bytes`` and ``busy_s`` counters of a NIC."""
        counters = self._nic_counters.get((node, direction))
        if counters is None:
            counters = self._nic_counters[node, direction] = (
                self._tracer.counter(f"net.nic[{node}].{direction}_bytes"),
                self._tracer.counter(f"net.nic[{node}].busy_s"),
            )
        return counters

    def _charge_nics(
        self, src_node: int, dst_node: int, nbytes: float, hold_s: float
    ) -> None:
        now = self.sim.now
        tx_bytes, busy = self._nic(src_node, "tx")
        tx_bytes.add(now, nbytes)
        busy.add(now, hold_s)
        rx_bytes, busy = self._nic(dst_node, "rx")
        rx_bytes.add(now, nbytes)
        if dst_node != src_node:
            busy.add(now, hold_s)

    # -- transfers ------------------------------------------------------------
    def fast_path_open(self) -> bool:
        """Whether a new transfer may run as a hybrid fast-path chain:
        hybrid mode on, and no fault state that could reroute it."""
        return self.hybrid and self.faults is None

    def claim_idle(
        self, src_node: int, dst_node: int, nbytes: float
    ) -> Optional[Tuple[Path, float]]:
        """Claim every slot of the fault-free route at once and return
        its path with how long a transfer of ``nbytes`` holds it;
        ``None`` (nothing claimed) when the network has fault state or
        any port is held.

        An uncontended DES transfer resumes synchronously from each
        ``request()`` (no queue pushes), so claiming directly schedules
        the exact same event sequence. Counts a fast transfer.
        """
        global _FAST_TRANSFERS
        if self.faults is not None:
            return None
        path = self._path_cache.get((src_node, dst_node))
        if path is None:
            path = self._path(src_node, dst_node)
        ordered = path[1]
        for port in ordered:
            if port.held:
                return None
        for port in ordered:
            port.held = True
        self.fast_transfers += 1
        _FAST_TRANSFERS += 1
        return path, nbytes / self._path_bw_Bs

    def hold_s(self, nbytes: float) -> float:
        """How long an inter-node transfer holds its route."""
        return nbytes / self._path_bw_Bs

    def copy_s(self, nbytes: float) -> float:
        """How long an intra-node memory copy of ``nbytes`` takes, after
        its fixed :data:`INTRA_NODE_LATENCY_US`."""
        return nbytes / self._intra_bw_Bs

    def settle(
        self,
        src_node: int,
        dst_node: int,
        path: Optional[Path] = None,
        nbytes: float = 0,
        hold_s: float = 0.0,
    ) -> None:
        """Complete a transfer: when it carried bytes, charge a hold of
        ``hold_s`` to every link of ``path`` (and, traced, to the link and
        NIC counters); release the path's ports; count the transfer,
        here and in :func:`transfer_totals`. An intra-node copy has no
        path."""
        global _TRANSFERS
        if path is not None:
            route, held, loads = path
            if nbytes:
                for load in loads:
                    load[0] += nbytes
                    load[1] += hold_s
                if self._tracer is not None:
                    for ln in route:
                        self._charge_link(ln, nbytes, hold_s)
                    self._charge_nics(src_node, dst_node, nbytes, hold_s)
            # Release in reverse acquisition order — in DES order, so a
            # waiter that queued mid-hold gets its slot as in full DES.
            for port in reversed(held):
                if port._waiters or not port.held:
                    port.release()
                else:
                    # Nobody queued: all that _Port.release would do.
                    port.held = False
        self.transfers_completed += 1
        _TRANSFERS += 1

    def transfer(self, src_node: int, dst_node: int, nbytes: float, latency_s: float):
        """Process-helper: move ``nbytes`` from ``src_node`` to ``dst_node``.

        ``latency_s`` is the end-to-end zero-byte latency (caller supplies
        it, including any VN surcharge). Use as
        ``yield from net.transfer(a, b, n, lat)``; returns the route taken
        (``None`` for an intra-node copy). This is the full-DES path:
        every hold is a port request, and the hybrid fast path is the
        MPI layer's transfer chain (:class:`repro.mpi.comm.Comm`), which
        falls back to :meth:`carry` when a route is busy.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src_node == dst_node:
            yield Delay(INTRA_NODE_LATENCY_US * MICRO)
            if nbytes:
                yield Delay(self.copy_s(nbytes))
            self.settle(src_node, dst_node)
            return None
        yield Delay(latency_s)
        route = yield from self.carry(src_node, dst_node, nbytes)
        return route

    def carry(self, src_node: int, dst_node: int, nbytes: float):
        """Process-helper: the part of an inter-node transfer after its
        latency — find the route (through the fault state, if any),
        acquire its ports in canonical order, hold them for
        ``nbytes / bandwidth``, release, count. Returns the route."""
        if self.faults is None:
            path = self._path(src_node, dst_node)
        else:
            route = yield from self._resolve_route(src_node, dst_node)
            path = self._new_path(src_node, dst_node, route)
        acquired: List[_Port] = []
        try:
            for port in path[1]:
                yield port.request()
                acquired.append(port)
            hold = 0.0
            if nbytes:
                hold = self.hold_s(nbytes)
                yield Delay(hold)
            acquired = []  # settle releases them
            self.settle(src_node, dst_node, path, nbytes, hold)
        finally:
            # Only what an interrupt left held.
            for port in reversed(acquired):
                port.release()
        return path[0]

    def _path(self, src_node: int, dst_node: int) -> Path:
        """The cached fault-free path from ``src_node`` to ``dst_node``
        (caching removes per-message routing and sorting)."""
        cached = self._path_cache.get((src_node, dst_node))
        if cached is None:
            cached = self._path_cache[(src_node, dst_node)] = self._new_path(
                src_node, dst_node, self.torus.route(src_node, dst_node)
            )
        return cached

    def _new_path(self, src_node: int, dst_node: int, route: List[Link]) -> Path:
        """``route`` with its NIC ports and links in the global canonical
        acquisition order (the ``repr``-sort makes acquisition
        deadlock-free by construction: no circular waits) and its links'
        load lists."""
        ports: List[Tuple[tuple, _Port]] = [
            (("nic_tx", src_node), self.nic_tx(src_node)),
            (("nic_rx", dst_node), self.nic_rx(dst_node)),
        ]
        for ln in route:
            ports.append((("link", ln), self.link(ln)))
        ports.sort(key=lambda kv: repr(kv[0]))
        load = self._link_load
        loads = [load.setdefault(ln, [0.0, 0.0]) for ln in route]
        return route, [port for _, port in ports], loads

    def _resolve_route(self, src_node: int, dst_node: int):
        """Process-helper: find a usable route under the active fault state.

        Waits out endpoint NIC stalls, then runs the SeaStar-style
        retransmission loop: try the dimension-order route; on a failed
        link, detour the long way around the ring, else back off
        ``RETRY_TIMEOUT_S`` (doubling) and retransmit.
        """
        faults = self.faults
        tracer = self._tracer
        for node in (src_node, dst_node):
            until = faults.nic_stalled_until.get(node, 0.0)
            if until > self.sim.now:
                faults.nic_stall_waits += 1
                if tracer is not None:
                    tracer.add("net.nic_stall_waits", self.sim.now, 1)
                yield Delay(until - self.sim.now)

        failed = faults.failed_links
        for i in range(MAX_RETRIES):
            route = self.torus.route(src_node, dst_node)
            bad = next((ln for ln in route if ln in failed), None)
            if bad is None:
                return route
            detour = self.torus.route_avoiding(src_node, dst_node, failed)
            if detour is not None:
                faults.reroutes += 1
                if tracer is not None:
                    tracer.add("net.reroutes", self.sim.now, 1)
                return detour
            faults.retransmits += 1
            if tracer is not None:
                tracer.add("net.retransmits", self.sim.now, 1)
            if i + 1 < MAX_RETRIES:
                yield Delay(RETRY_TIMEOUT_S * BACKOFF_FACTOR**i)
        raise NetworkUnreachableError(
            f"transfer {src_node}->{dst_node} undeliverable after "
            f"{MAX_RETRIES} retransmission(s) ({link_label(bad)} down)"
        )

    # -- diagnostics ---------------------------------------------------------
    @property
    def link_bytes(self) -> Dict[Link, float]:
        """Bytes carried per directed link that carried any (hotspot
        diagnostics)."""
        return {ln: load[0] for ln, load in self._link_load.items() if load[0]}

    @property
    def link_busy_s(self) -> Dict[Link, float]:
        """Accumulated busy seconds per directed link that carried any."""
        return {ln: load[1] for ln, load in self._link_load.items() if load[0]}

    def hotspot_report(self, top: int = 5) -> List[Tuple[Link, float]]:
        """The ``top`` busiest directed links by carried bytes, ties in
        ``repr`` order."""
        ranked = sorted(
            self.link_bytes.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        )
        return ranked[:top]

    def utilization(self, link: Link) -> float:
        """Fraction of elapsed simulated time the link was busy."""
        if self.sim.now <= 0:
            return 0.0
        load = self._link_load.get(link)
        busy = load[1] if load is not None else 0.0
        return busy / self.sim.now
