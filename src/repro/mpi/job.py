"""MPI job launcher: places ranks on a machine and runs them to completion."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults import FaultInjector, FaultPlan, FaultPolicy, current_plan
from repro.machine.configs import PROFILES
from repro.machine.processor import CoreModel
from repro.machine.specs import Machine
from repro.mpi.comm import Comm
from repro.mpi.costmodels import CollectiveCostModel
from repro.network.mapping import Placement
from repro.network.model import NetworkModel
from repro.network.simnet import SimNetwork
from repro.simengine import Process, ResourceLeakError, Simulator

#: Window within which a node's other task counts as "actively messaging"
#: for the VN NIC-interrupt contention term (covers ping-pong alternation).
_ACTIVITY_WINDOW_S = 20.0e-6


class JobFailedError(RuntimeError):
    """The job was aborted by an unrecoverable fault (node crash without a
    recovery policy, or ``max_restarts`` exhausted)."""


class JobResult:
    """Outcome of one simulated MPI job.

    ``faults_injected``, ``restarts``, ``checkpoints`` and
    ``net_retransmits`` are the resilience accounting (all zero for
    fault-free, policy-free runs).
    """

    def __init__(
        self,
        machine: str,
        mode: str,
        ntasks: int,
        elapsed_s: float,
        rank_times: List[float],
        returns: List[Any],
        faults_injected: int = 0,
        restarts: int = 0,
        checkpoints: int = 0,
        net_retransmits: int = 0,
    ) -> None:
        self.machine = machine
        self.mode = mode
        self.ntasks = ntasks
        self.elapsed_s = elapsed_s
        self.rank_times = rank_times
        self.returns = returns
        self.faults_injected = faults_injected
        self.restarts = restarts
        self.checkpoints = checkpoints
        self.net_retransmits = net_retransmits


class _CollCtx:
    __slots__ = ("kind", "values", "event", "count", "result")

    def __init__(self, sim: Simulator, kind: str) -> None:
        self.kind = kind
        self.values: Dict[int, Any] = {}
        self.event = sim.event(name=f"coll:{kind}")
        self.count = 0
        self.result: Any = None

    def fire(self) -> None:
        """Scheduled completion callback. A bound method with the combined
        result stashed on the ctx — not a per-collective closure (SL901)."""
        self.event.succeed(self.result)


class MPIJob:
    """A set of simulated MPI ranks on a machine.

    :param machine: target system bound to an execution mode.
    :param ntasks: MPI tasks (≤ ``machine.max_tasks``).
    :param placement: ``contiguous`` or ``random`` rank layout.
    :param sanitize: enable the runtime sanitizers — on deadlock, a
        :class:`~repro.simengine.SimDeadlockError` names each blocked rank
        and the receive/collective it waits on (instead of the generic
        "job deadlocked" error); once every process has finished, a
        network port still held raises
        :class:`~repro.simengine.ResourceLeakError` naming it.
    :param tracer: attach a :class:`~repro.obs.tracer.Tracer` — every
        rank's MPI operations (``mpi.<op>`` spans, folded into per-rank
        profiles by :func:`~repro.mpi.profiler.mpi_profiles`),
        compute/stream phases, transfers and resource contention are
        recorded for Perfetto export (see docs/OBSERVABILITY.md).
        Defaults to the process-wide installed tracer, i.e. off.
    :param faults: a :class:`~repro.faults.FaultPlan` to inject during the
        run. Defaults to the process-wide installed plan (``--faults``
        CLI), i.e. off; pass an empty plan to force a fault-free run even
        when one is installed. With no plan the job takes exactly the
        pre-fault-subsystem code paths (bit-identical results). The
        network turns fault-aware only once a link or NIC fault fires;
        node crashes, memory throttles and OS noise act through the job
        and leave its transfers on the fault-free (and fast) path.
    :param fault_policy: a :class:`~repro.faults.FaultPolicy` enabling
        coordinated checkpoint/restart recovery (see docs/RESILIENCE.md).
        Without one, any node crash aborts the job with
        :class:`JobFailedError`.
    :param rank_main: supplied to :meth:`run`: a generator function
        ``rank_main(comm, *args, **kwargs)`` executed by every rank.
    """

    def __init__(
        self,
        machine: Machine,
        ntasks: int,
        placement: str = "contiguous",
        seed: Optional[int] = None,
        sanitize: bool = False,
        tracer: Optional[Any] = None,
        faults: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
    ) -> None:
        self.machine = machine
        self.ntasks = ntasks
        self.sim = Simulator(sanitize=sanitize, tracer=tracer)
        self.placement = Placement(machine, ntasks, strategy=placement, seed=seed)
        self.network = SimNetwork(self.sim, machine)
        self.model = NetworkModel(machine)
        self.costs = CollectiveCostModel.for_machine(self.model, ntasks)
        self.core_model = CoreModel(machine)
        # Placement is static, so each rank's count of busy cores on its
        # socket is too, and so is every local rate. Compute and stream
        # times divide by a rate looked up here (``flops / rate`` — the
        # divisor itself, not its reciprocal, keeps the arithmetic of
        # :meth:`CoreModel.time_s` bit for bit).
        cores = machine.node.cores
        self._active: List[int] = [
            min(self.placement.tasks_sharing_nic(r), cores)
            for r in range(ntasks)
        ]
        #: (profile, active cores) → flops per second.
        self._flop_rate: Dict[Tuple[Any, int], float] = {}
        #: active cores → streaming bytes per second.
        self._stream_rate: Dict[int, float] = {}
        #: (profile or None for streaming, active cores) → a traced
        #: phase's span name, controller draw (GB/s) and stall fraction.
        self._phase_terms: Dict[Tuple[Any, int], Tuple[str, float, float]] = {}
        self.comms: List[Comm] = [Comm(self, r) for r in range(ntasks)]
        #: Open collective rendezvous by (group, sequence number).
        self._coll: Dict[Tuple[Any, int], _CollCtx] = {}
        self._node_last_tx: Dict[int, float] = {}
        # (src_rank, dst_rank) → static latency terms. Placement is fixed
        # at job start, so hops / NIC sharing / both contention prices are
        # computed once per pair instead of per message (the sharing scan
        # is O(ranks) — it dominated isend before this cache).
        self._lat_cache: Dict[Tuple[int, int], tuple] = {}
        # -- resilience state (inert unless a plan/policy is supplied) -----
        if faults is None:
            faults = current_plan()
        self.fault_policy = fault_policy
        self._injector: Optional[FaultInjector] = None
        # The injector's per-node slowdowns: none, no dilation.
        self._node_states: Dict[int, Any] = {}
        if faults is not None and len(faults):
            self._injector = FaultInjector(
                self.sim, self.network, faults,
                on_node_crash=self._on_node_crash,
                node_states=self._node_states,
            )
        self._rank_procs: List[Process] = []
        self._job_done = False
        self._abort_reason: Optional[str] = None
        self._ckpt_handle: Optional[Any] = None
        self._restarts = 0
        self._checkpoints = 0
        #: Simulated time of the last durable checkpoint (job start = 0).
        self._last_durable_t = 0.0
        #: Stall seconds (restart outages) accumulated since that
        #: checkpoint — subtracted from the lost-work window on a crash so
        #: consecutive crashes never double-count redone work.
        self._stalled_since_durable = 0.0

    # -- latency / contention ------------------------------------------------
    def latency_terms(self, src_rank: int, dst_rank: int) -> tuple:
        """Static latency terms of a rank pair, computed once:
        ``(sharing, src_node, dst_node, idle_s, contended_s)``.

        ``sharing`` is the larger task count on the two NICs: 0 for an
        intra-node pair (the network prices that path itself), 1 when
        neither NIC is shared — the price is then ``idle_s`` whatever
        the clock — and above 1 when :meth:`price_latency_s` must look
        at recent NIC activity.
        """
        entry = self._lat_cache.get((src_rank, dst_rank))
        if entry is None:
            p = self.placement
            hops = p.hops(src_rank, dst_rank)
            if hops == 0:
                node = p.node_of(src_rank)
                entry = (0, node, node, 0.0, 0.0)
            else:
                sharing = max(
                    p.tasks_sharing_nic(src_rank), p.tasks_sharing_nic(dst_rank)
                )
                nodes = max(2, p.num_nodes_used)
                entry = (
                    sharing,
                    p.node_of(src_rank),
                    p.node_of(dst_rank),
                    self.model.base_latency_s(
                        hops=hops, contended_fraction=0.0, job_nodes=nodes
                    ),
                    self.model.base_latency_s(
                        hops=hops, contended_fraction=1.0, job_nodes=nodes
                    ),
                )
            self._lat_cache[(src_rank, dst_rank)] = entry
        return entry

    def price_latency_s(self, terms: tuple) -> float:
        """End-to-end zero-byte latency for a message sent *now*, from its
        pair's :meth:`latency_terms`; notes the NIC activity it causes.

        Static part: base NIC latency + hop latency + the VN surcharge when
        the sender or receiver shares its node with another job task.
        Dynamic part: the full interrupt-contention term when the sharing
        task has itself driven the NIC within the recent activity window.
        """
        sharing, src_node, dst_node, lat_idle, lat_contended = terms
        if sharing == 0:
            return 0.0  # intra-node path is priced by the network itself
        if sharing > 1:
            now = self.sim.now
            last_tx = self._node_last_tx
            contended = False
            for node in (src_node, dst_node):
                last = last_tx.get(node)
                # Same-time activity counts: simultaneous injection from
                # the sharing core pays the interrupt surcharge too. The
                # pricing order among same-time messages is pinned by the
                # transfers' tie-break keys (Comm.isend), so this
                # read-then-note sequence is schedule-invariant.
                if last is not None and now - last <= _ACTIVITY_WINDOW_S:
                    contended = True
                    break
            last_tx[src_node] = now
            last_tx[dst_node] = now
            return lat_contended if contended else lat_idle
        return lat_idle

    # -- local compute -------------------------------------------------------
    def compute_time_s(self, rank: int, flops: float, profile: str) -> float:
        active = self._active[rank]
        rate = self._flop_rate.get((profile, active))
        if rate is None:
            prof = PROFILES[profile] if isinstance(profile, str) else profile
            rate = self.core_model.rate_gflops(prof, active) * 1.0e9
            self._flop_rate[(profile, active)] = rate
        t = flops / rate
        return t * self._dilation(rank, memory=False) if self._node_states else t

    def stream_time_s(self, rank: int, nbytes: float) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        active = self._active[rank]
        rate = self._stream_rate.get(active)
        if rate is None:
            memory = self.core_model.memory
            rate = memory.per_core_bandwidth_GBs(active) * 1.0e9
            self._stream_rate[active] = rate
        t = nbytes / rate
        return t * self._dilation(rank, memory=True) if self._node_states else t

    def _dilation(self, rank: int, memory: bool) -> float:
        """Fault-induced slowdown multiplier for work issued now on
        ``rank``'s node (memory throttles, OS noise, post-crash
        degradation). 1.0 whenever the node is untouched."""
        st = self._node_states.get(self.placement.node_of(rank))
        if st is None:
            return 1.0
        now = self.sim.now
        return st.memory_dilation(now) if memory else st.compute_dilation(now)

    # -- tracing ---------------------------------------------------------------
    def trace_local_phase(
        self, rank: int, dt: float, profile: Optional[str] = None
    ) -> None:
        """Record a local compute/stream phase of length ``dt`` starting
        now on ``rank``'s track, with the memory-controller counters.

        Emits a ``compute.<profile>`` / ``stream`` span plus, following
        the shared-controller model (paper §2):

        * ``machine.mem[nodeN].bw_GBs`` — bandwidth this phase draws
          through the node's controller (accumulating: +rate at start,
          −rate at end, so the counter shows the aggregate in-flight
          draw across the node's cores);
        * ``machine.core[rankN].stall_s`` — cumulative seconds this
          rank's core spent stalled on memory.
        """
        tracer = self.sim.tracer
        if tracer is None:
            return
        t0 = self.sim.now
        t1 = t0 + dt
        active = self._active[rank]
        terms = self._phase_terms.get((profile, active))
        if terms is None:
            memory = self.core_model.memory
            if profile is not None:
                prof = PROFILES[profile] if isinstance(profile, str) else profile
                peak = self.core_model.peak_gflops
                terms = (
                    f"compute.{prof.name}",
                    memory.traffic_rate_GBs(prof, peak, active),
                    memory.stall_fraction(prof, peak, active),
                )
            else:
                # Streaming is pure memory time: it stalls throughout.
                terms = ("stream", memory.per_core_bandwidth_GBs(active), 1.0)
            self._phase_terms[profile, active] = terms
        name, rate_GBs, stall_fraction = terms
        stall_s = dt * stall_fraction
        tracer.complete(f"rank{rank}", name, t0, t1)
        node = self.placement.node_of(rank)
        if rate_GBs > 0.0 and dt > 0.0:
            tracer.add(f"machine.mem[node{node}].bw_GBs", t0, rate_GBs)
            tracer.add(f"machine.mem[node{node}].bw_GBs", t1, -rate_GBs)
        if stall_s > 0.0:
            tracer.add(f"machine.core[rank{rank}].stall_s", t1, stall_s)

    # -- collectives -----------------------------------------------------------
    def join_collective(
        self, group_key: Any, seq: int, kind: str, size: int, rank: int,
        value: Any,
    ) -> _CollCtx:
        """Add ``rank``'s ``value`` to the rendezvous of collective
        #``seq`` of a communicator group (the world communicator or a
        :func:`Comm.split` product), dropped once all ``size`` joined."""
        key = (group_key, seq)
        ctx = self._coll.get(key)
        if ctx is None:
            ctx = self._coll[key] = _CollCtx(self.sim, kind)
        elif ctx.kind != kind:
            raise RuntimeError(
                f"collective mismatch at sequence {seq}: {ctx.kind} vs {kind}"
            )
        ctx.values[rank] = value
        ctx.count += 1
        if ctx.count == size:
            del self._coll[key]
        return ctx

    # -- resilience ------------------------------------------------------------
    def _checkpoint_tick(self) -> None:
        """Take one coordinated checkpoint, then schedule the next.

        The checkpoint is a global stop-the-world pause: every pending
        event (rank delays, in-flight transfers, armed faults) is
        postponed by the checkpoint cost via
        :meth:`~repro.simengine.Simulator.freeze`. The next tick is
        scheduled *after* the freeze so the cadence is
        ``interval + cost`` in wall-clock, ``interval`` in compute time.
        """
        if self._job_done:
            return
        pol = self.fault_policy
        t = self.sim.now
        self.sim.freeze(pol.checkpoint_cost_s)
        self._checkpoints += 1
        self._last_durable_t = t + pol.checkpoint_cost_s
        self._stalled_since_durable = 0.0
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.add("job.checkpoints", t, 1)
            tracer.complete(
                "job", "job.checkpoint", t, t + pol.checkpoint_cost_s
            )
        self._ckpt_handle = self.sim.schedule(
            pol.checkpoint_cost_s + pol.checkpoint_interval_s,
            self._checkpoint_tick,
        )

    def _on_node_crash(self, node: int) -> None:
        """Fault-injector hook: a node hosting this job died.

        With a :class:`~repro.faults.FaultPolicy`, the job rewinds to its
        last durable checkpoint: the work done since then is lost and —
        under the deterministic-replay assumption that redone work takes
        the same simulated time — re-executing it is modeled as a global
        stall of ``lost + restart_cost_s`` seconds
        (:meth:`~repro.simengine.Simulator.freeze`). Without a policy the
        job aborts.
        """
        if self._job_done:
            return
        pol = self.fault_policy
        t = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("job", "job.node_crash", t, node=node)
        if pol is None:
            self._abort(f"node {node} crashed and the job has no recovery policy")
            return
        if self._restarts >= pol.max_restarts:
            self._abort(
                f"node {node} crashed after max_restarts={pol.max_restarts} "
                "recoveries were already spent"
            )
            return
        self._restarts += 1
        lost = max(0.0, t - self._last_durable_t - self._stalled_since_durable)
        stall = lost + pol.restart_cost_s
        self.sim.freeze(stall)
        self._stalled_since_durable += stall
        if pol.degrade_factor > 1.0 and self._injector is not None:
            # Graceful degradation: the dead node's share of work now runs
            # slower on the survivors, modeled as a permanent dilation of
            # the ranks placed on it.
            self._injector.state(node).degrade_factor *= pol.degrade_factor
        if tracer is not None:
            tracer.add("job.restarts", t, 1)
            tracer.add("job.lost_work_s", t, lost)
            tracer.complete("job", "job.restart", t, t + stall,
                            node=node, lost_s=lost)

    def _abort(self, reason: str) -> None:
        """Kill the job: interrupt every live rank and stop injecting."""
        self._job_done = True
        self._abort_reason = reason
        self._finish_cleanup()
        for proc in self._rank_procs:
            proc.interrupt(reason)

    def _finish_cleanup(self) -> None:
        """Cancel pending fault injections and checkpoint ticks so they
        cannot keep the clock running past the job's end."""
        if self._injector is not None:
            self._injector.cancel_pending()
        if self._ckpt_handle is not None:
            self.sim.cancel(self._ckpt_handle)
            self._ckpt_handle = None

    # -- execution -------------------------------------------------------------
    def run(
        self,
        rank_main: Callable[..., Any],
        *args: Any,
        max_events: int = 0,
        **kwargs: Any,
    ) -> JobResult:
        """Run ``rank_main(comm, *args, **kwargs)`` on every rank.

        Returns a :class:`JobResult` with per-rank completion times (from
        simulated t=0) and return values. ``max_events`` (0 = unlimited)
        aborts runaway rank programs after that many simulation events.

        :raises JobFailedError: a node crash was unrecoverable (no
            :class:`~repro.faults.FaultPolicy`, or restarts exhausted).
        """
        finish: List[float] = [0.0] * self.ntasks
        returns: List[Any] = [None] * self.ntasks
        done: List[bool] = [False] * self.ntasks

        def wrapper(rank: int):
            result = yield from rank_main(self.comms[rank], *args, **kwargs)
            finish[rank] = self.sim.now
            returns[rank] = result
            done[rank] = True
            if all(done):
                self._job_done = True
                self._finish_cleanup()

        self._rank_procs = [
            self.sim.spawn(wrapper(r), name=f"rank{r}")
            for r in range(self.ntasks)
        ]
        if self._injector is not None:
            self._injector.arm()
        if self.fault_policy is not None:
            self._ckpt_handle = self.sim.schedule(
                self.fault_policy.checkpoint_interval_s, self._checkpoint_tick
            )
        self.sim.run(max_events=max_events)
        if self.sim.sanitize:
            held = self.network.held_ports()
            if held:
                raise ResourceLeakError(
                    f"network ports leaked at t={self.sim.now:.9g}s after "
                    f"all processes finished: {', '.join(map(repr, held))}"
                )
        if self._abort_reason is not None:
            raise JobFailedError(f"job failed: {self._abort_reason}")
        if not all(done):
            stuck = [r for r, d in enumerate(done) if not d]
            raise RuntimeError(
                f"job deadlocked: ranks {stuck[:8]}{'...' if len(stuck) > 8 else ''} "
                "never completed (unmatched recv or collective?)"
            )
        net_faults = self.network.faults
        return JobResult(
            machine=self.machine.name,
            mode=str(self.machine.mode),
            ntasks=self.ntasks,
            elapsed_s=max(finish),
            rank_times=finish,
            returns=returns,
            faults_injected=(
                self._injector.injected if self._injector is not None else 0
            ),
            restarts=self._restarts,
            checkpoints=self._checkpoints,
            net_retransmits=(
                net_faults.retransmits if net_faults is not None else 0
            ),
        )
