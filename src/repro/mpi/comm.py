"""The simulated communicator (mpi4py-flavoured, generator-based)."""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from repro.machine.specs import MICRO
from repro.mpi.datatypes import payload_nbytes, reduce_values
from repro.mpi.request import Request
from repro.network.simnet import INTRA_NODE_LATENCY_US
from repro.simengine import Delay, Event, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.job import MPIJob

ANY_SOURCE = -1
ANY_TAG = -1


class _Msg:
    __slots__ = ("source", "tag", "obj")

    def __init__(self, source: int, tag: int, obj: Any) -> None:
        self.source = source
        self.tag = tag
        self.obj = obj


class _Transfer:
    """One message from ``comm``'s rank to ``dest``, in flight.

    :meth:`run` is the full-DES reference: a process pricing the latency
    and running :meth:`SimNetwork.transfer`. When the network's fast path
    is open (:meth:`SimNetwork.fast_path_open`), :meth:`post` instead
    runs the message as a keyed callback chain that pushes exactly the
    queue entries that process does, at the same times and under the
    same key — so simulated results cannot move:

    * :meth:`start`, at send time, prices the latency;
    * :meth:`arrive` claims the route if it is idle and schedules the
      end of the hold; a busy route, or a network that has meanwhile
      gained fault state, continues in :meth:`SimNetwork.carry` as a
      process started synchronously (no extra queue entry);
    * :meth:`finish` charges the links, releases and delivers.

    Intra-node messages hold no resources: :meth:`start` → :meth:`copy`
    (after the fixed copy latency) → :meth:`copied`.

    The completion :class:`Event` is made only when a sender waits on a
    message still in flight (:meth:`completion`); ``delivered`` tells
    whether it has arrived.
    """

    __slots__ = ("comm", "dest", "tag", "obj", "nbytes", "key", "done",
                 "delivered", "terms", "route", "ordered", "hold")

    def __init__(
        self, comm: "Comm", dest: int, tag: Any, obj: Any, nbytes: int,
        peer: tuple,
    ) -> None:
        self.comm = comm
        self.dest = dest
        self.tag = tag
        self.obj = obj
        self.nbytes = nbytes
        self.key = peer[2]
        #: The pair's static latency terms (``MPIJob.latency_terms``).
        self.terms = peer[3]
        self.done: Optional[Event] = None
        self.delivered = False
        comm._in_flight[dest] += 1

    # -- full DES ----------------------------------------------------------
    def run(self):
        job = self.comm.job
        terms = self.terms
        latency = job.price_latency_s(terms)
        yield from job.network.transfer(terms[1], terms[2], self.nbytes, latency)
        self.deliver()

    # -- keyed callback chain ----------------------------------------------
    def post(self) -> None:
        sim = self.comm.job.sim
        sharing = self.terms[0]
        if sharing > 1 or self.comm._in_flight[self.dest] > 1:
            sim.schedule(0.0, self.start, key=self.key)
        # Static-latency fusion: an unshared or intra-node pair's price
        # reads no clock state, so ``start`` would only push the next
        # step at now + latency — push it here instead. The pushed entry
        # then takes an earlier sequence number, which orders it only
        # among same-time entries of its own key, i.e. of this pair's
        # other transfers; with none in flight there are none to reorder.
        elif sharing:
            sim.schedule(self.terms[3], self.arrive, key=self.key)
        else:
            sim.schedule(INTRA_NODE_LATENCY_US * MICRO, self.copy, key=self.key)

    def start(self) -> None:
        job = self.comm.job
        terms = self.terms
        if terms[0] == 0:
            job.sim.schedule(INTRA_NODE_LATENCY_US * MICRO, self.copy, key=self.key)
        else:
            job.sim.schedule(job.price_latency_s(terms), self.arrive, key=self.key)

    def arrive(self) -> None:
        job = self.comm.job
        net = job.network
        src_node, dst_node = self.terms[1], self.terms[2]
        claimed = net.claim_idle(src_node, dst_node)
        if claimed is None:
            job.sim._continue(
                self._carry(), f"xfer {self.comm.rank}->{self.dest}", self.key
            )
            return
        self.route, self.ordered = claimed
        if self.nbytes:
            self.hold = net.hold_s(self.nbytes)
            job.sim.schedule(self.hold, self.finish, key=self.key)
        else:
            self.finish()

    def _carry(self):
        terms = self.terms
        yield from self.comm.job.network.carry(terms[1], terms[2], self.nbytes)
        self.deliver()

    def finish(self) -> None:
        net = self.comm.job.network
        if self.nbytes:
            net.charge(
                self.terms[1], self.terms[2], self.route, self.nbytes, self.hold
            )
        net.release(self.ordered)
        net.count_transfer()
        self.deliver()

    def copy(self) -> None:
        if self.nbytes:
            job = self.comm.job
            job.sim.schedule(
                job.network.copy_s(self.nbytes), self.copied, key=self.key
            )
        else:
            self.copied()

    def copied(self) -> None:
        self.comm.job.network.count_transfer()
        self.deliver()

    def deliver(self) -> None:
        comm = self.comm
        comm._in_flight[self.dest] -= 1
        comm.job.comms[self.dest]._inbox.put(_Msg(comm.rank, self.tag, self.obj))
        self.delivered = True
        if self.done is not None:
            self.done.succeed(None)

    def completion(self) -> Event:
        """The event that succeeds on delivery, made on first request."""
        done = self.done
        if done is None:
            comm = self.comm
            done = self.done = Event(comm.job.sim, comm._peers[self.dest][0])
            if self.delivered:
                done.succeed(None)
        return done


class Comm:
    """One rank's view of the job communicator.

    All communication methods are process-helpers: call them with
    ``yield from`` inside a rank generator. Payloads are delivered intact;
    the simulated wall clock advances by the modelled cost.
    """

    def __init__(self, job: "MPIJob", rank: int) -> None:
        self.job = job
        self.rank = rank
        self.size = job.ntasks
        self._inbox = Store(job.sim, name=f"inbox[{rank}]")
        self._coll_seq = 0
        self._group_key: Any = "world"
        # Destination → (isend name, transfer name, tie-break key, latency
        # terms), built once: a rank sends to the same few torus
        # neighbours thousands of times.
        self._peers: dict = {}
        # Destination → transfers from this rank not yet delivered.
        self._in_flight: Dict[int, int] = defaultdict(int)
        # (source, tag) → (inbox, match predicate), built once per pair.
        self._mailboxes: dict = {}
        # The job's tracer, looked up once: an untraced operation pays one
        # ``is None`` test. Every operation records on the world rank's
        # track, sub-communicator calls included.
        self._tracer = job.sim.tracer
        self._track = f"rank{rank}"

    # -- group plumbing (overridden by SubComm) -------------------------------
    def _costs(self):
        return self.job.costs

    def _root_comm(self) -> "Comm":
        return self

    def _world_rank_of(self, rank: int) -> int:
        return rank

    # -- clock ----------------------------------------------------------------
    def wtime(self) -> float:
        """Current simulated time (MPI_Wtime)."""
        return self.job.sim.now

    # -- tracing ----------------------------------------------------------------
    def _span(self, op: str, t0: float, nbytes: float) -> None:
        """Record ``mpi.<op>`` from ``t0`` to now, tagged with its bytes."""
        self._tracer.complete(
            self._track, f"mpi.{op}", t0, self.job.sim.now, bytes=nbytes
        )

    # -- local compute ----------------------------------------------------------
    def compute(self, flops: float, profile: str = "dgemm"):
        """Charge local computation time for ``flops`` of the given kernel,
        under this rank's static memory-sharing environment."""
        rank = self._world_rank_of(self.rank)
        dt = self.job.compute_time_s(rank, flops, profile)
        if self._tracer is not None:
            self.job.trace_local_phase(rank, dt, profile=profile)
        yield Delay(dt)
        return dt

    def stream(self, nbytes: float):
        """Charge local streaming-memory time for ``nbytes`` of traffic."""
        rank = self._world_rank_of(self.rank)
        dt = self.job.stream_time_s(rank, nbytes)
        if self._tracer is not None:
            self.job.trace_local_phase(rank, dt)
        yield Delay(dt)
        return dt

    # -- point to point -----------------------------------------------------------
    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"rank {peer} outside communicator of size {self.size}")

    def isend(
        self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None
    ) -> Request:
        """Start a nonblocking send; returns a :class:`Request`."""
        n = payload_nbytes(obj) if nbytes is None else int(nbytes)
        req = Request(self._isend(obj, dest, tag, n).completion())
        if self._tracer is not None:
            self._tracer.instant(self._track, "mpi.isend", self.job.sim.now, bytes=n)
        return req

    def _isend(self, obj: Any, dest: int, tag: Any, n: int) -> _Transfer:
        """Untraced send of ``n`` bytes; returns the message in flight
        (overridden by SubComm)."""
        peer = self._peers.get(dest)
        if peer is None:
            self._check_peer(dest)
            # The tie-break key makes same-time transfer wakeups — and
            # hence NIC/link arbitration among simultaneous messages —
            # follow rank order deterministically instead of queue
            # insertion order, which is a schedule race (two exchanging
            # pairs in VN mode would otherwise pipeline differently per
            # tie-break permutation).
            peer = self._peers[dest] = (
                f"isend {self.rank}->{dest}",
                f"xfer {self.rank}->{dest}",
                f"xfer:{self.rank:06d}->{dest:06d}",
                self.job.latency_terms(self.rank, dest),
            )
        if n < 0:
            raise ValueError("nbytes must be >= 0")
        job = self.job
        xfer = _Transfer(self, dest, tag, obj, n, peer)
        if job.network.fast_path_open():
            xfer.post()
        else:
            job.sim.spawn(xfer.run(), name=peer[1], key=peer[2])
        return xfer

    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        """Blocking send: returns once the message is fully injected and
        delivered (conservative synchronous semantics)."""
        t0 = self.job.sim.now
        n = payload_nbytes(obj) if nbytes is None else int(nbytes)
        xfer = self._isend(obj, dest, tag, n)
        if not xfer.delivered:
            yield xfer.completion()
        if self._tracer is not None:
            self._span("send", t0, n)

    def _mailbox(self, source: int, tag: Any) -> Tuple[Store, Callable]:
        """The inbox holding messages from ``source`` with ``tag``, and
        the predicate that matches them (overridden by SubComm)."""
        box = self._mailboxes.get((source, tag))
        if box is None:
            if source != ANY_SOURCE:
                self._check_peer(source)
            box = self._mailboxes[(source, tag)] = (
                self._inbox,
                lambda m: (source == ANY_SOURCE or m.source == source)
                and (tag == ANY_TAG or m.tag == tag),
            )
        return box

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Start a nonblocking receive; the request's value is the payload."""
        inbox, match = self._mailbox(source, tag)
        done = self.job.sim.event(name=f"irecv @{self.rank}")
        # A message that has already arrived completes the request now.
        msg = inbox.take(match)
        if msg is None:
            inbox.get(match).add_callback(lambda e: done.succeed(e.value.obj))
        else:
            done.succeed(msg.obj)
        if self._tracer is not None:
            self._tracer.instant(self._track, "mpi.irecv", self.job.sim.now, bytes=0)
        return Request(done)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the payload object."""
        t0 = self.job.sim.now
        inbox, match = self._mailbox(source, tag)
        # A message that has already arrived is taken without an event.
        msg = inbox.take(match)
        if msg is None:
            msg = yield inbox.get(match)
        if self._tracer is not None:
            self._span("recv", t0, 0)
        return msg.obj

    def recv_with_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns ``(payload, source, tag)``."""
        t0 = self.job.sim.now
        inbox, match = self._mailbox(source, tag)
        # A message that has already arrived is taken without an event.
        msg = inbox.take(match)
        if msg is None:
            msg = yield inbox.get(match)
        if self._tracer is not None:
            self._span("recv", t0, 0)
        return msg.obj, msg.source, msg.tag

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: Optional[int] = None,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ):
        """Simultaneous exchange; returns the received payload."""
        t0 = self.job.sim.now
        n = payload_nbytes(obj) if nbytes is None else int(nbytes)
        xfer = self._isend(obj, dest, tag, n)
        inbox, match = self._mailbox(dest if source is None else source, tag)
        msg = inbox.take(match)
        if msg is None:
            msg = yield inbox.get(match)
        if not xfer.delivered:
            yield xfer.completion()
        if self._tracer is not None:
            self._span("sendrecv", t0, n)
        return msg.obj

    # -- collectives ----------------------------------------------------------------
    def _collective(
        self,
        kind: str,
        value: Any,
        combine: Callable[[Dict[int, Any]], Any],
        cost_fn: Callable[[Dict[int, Any]], float],
    ):
        """Rendezvous the group on collective ``kind``; every collective
        (but the untimed ``split``) records its ``mpi.<kind>`` span here,
        tagged with the bytes of this rank's ``value``."""
        t0 = self.job.sim.now
        seq = self._coll_seq
        self._coll_seq += 1
        ctx = self.job.collective_ctx(self._group_key, seq, kind, self.size)
        ctx.values[self.rank] = value
        ctx.count += 1
        if ctx.count == self.size:
            ctx.result = combine(ctx.values)
            cost = cost_fn(ctx.values)
            self.job.sim.schedule(cost, ctx.fire)
        result = yield ctx.event
        if self._tracer is not None and kind != "split":
            self._span(kind, t0, payload_nbytes(value))
        return result

    def dup(self):
        """MPI_Comm_dup: a communicator with the same group but a private
        collective sequence space (libraries use this to keep their
        collectives from interleaving with the application's)."""
        result = yield from self.split(color=0, key=self.rank)
        return result

    def split(self, color: Any, key: Optional[int] = None):
        """MPI_Comm_split: partition this communicator by ``color``.

        Every rank must call it; ranks passing ``color=None`` opt out (as
        with ``MPI_UNDEFINED``) and receive ``None``. Within a colour,
        ranks order by ``key`` (default: current rank). Returns a
        :class:`~repro.mpi.subcomm.SubComm` supporting the full API.
        """
        from repro.mpi.subcomm import SubComm

        seq = self._coll_seq  # captured before _collective advances it
        entry = (color, self.rank if key is None else key)
        mapping = yield from self._collective(
            "split",
            entry,
            lambda v: dict(v),
            lambda v: self._costs().allgather_s(16),
        )
        if color is None:
            return None
        members = sorted(
            (r for r in range(self.size) if mapping[r][0] == color),
            key=lambda r: (mapping[r][1], r),
        )
        group_key = (self._group_key, "split", seq, color)
        world_ranks = [self._world_rank_of(r) for r in members]
        return SubComm(self._root_comm(), group_key, world_ranks)

    def barrier(self):
        """MPI_Barrier."""
        yield from self._collective(
            "barrier", None, lambda v: None, lambda v: self._costs().barrier_s()
        )

    def bcast(self, obj: Any = None, root: int = 0):
        """MPI_Bcast: every rank returns the root's object."""
        self._check_peer(root)
        result = yield from self._collective(
            "bcast",
            obj,
            lambda v: v[root],
            lambda v: self._costs().bcast_s(payload_nbytes(v[root])),
        )
        return result

    def reduce(self, value: Any, op: str = "sum", root: int = 0):
        """MPI_Reduce: the root returns the combined value, others None."""
        self._check_peer(root)
        result = yield from self._collective(
            "reduce",
            value,
            lambda v: reduce_values([v[r] for r in range(self.size)], op),
            lambda v: self._costs().reduce_s(payload_nbytes(v[0])),
        )
        return result if self.rank == root else None

    def allreduce(self, value: Any, op: str = "sum"):
        """MPI_Allreduce: every rank returns the combined value."""
        result = yield from self._collective(
            "allreduce",
            value,
            lambda v: reduce_values([v[r] for r in range(self.size)], op),
            lambda v: self._costs().allreduce_s(payload_nbytes(v[0])),
        )
        return result

    def gather(self, value: Any, root: int = 0):
        """MPI_Gather: root returns the list of per-rank values."""
        self._check_peer(root)
        result = yield from self._collective(
            "gather",
            value,
            lambda v: [v[r] for r in range(self.size)],
            lambda v: self._costs().gather_s(
                max(payload_nbytes(x) for x in v.values())
            ),
        )
        return result if self.rank == root else None

    def allgather(self, value: Any):
        """MPI_Allgather: every rank returns the list of per-rank values."""
        result = yield from self._collective(
            "allgather",
            value,
            lambda v: [v[r] for r in range(self.size)],
            lambda v: self._costs().allgather_s(
                max(payload_nbytes(x) for x in v.values())
            ),
        )
        return result

    def scatter(self, values: Optional[Sequence[Any]] = None, root: int = 0):
        """MPI_Scatter: root supplies one value per rank."""
        self._check_peer(root)
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise ValueError("root must supply exactly one value per rank")
        result = yield from self._collective(
            "scatter",
            list(values) if self.rank == root else values,
            lambda v: v[root],
            lambda v: self._costs().scatter_s(
                max(payload_nbytes(x) for x in v[root])
            ),
        )
        return result[self.rank]

    def reduce_scatter(self, values: Sequence[Any], op: str = "sum"):
        """MPI_Reduce_scatter: elementwise-reduce the per-rank lists and
        hand slot ``i`` of the combined list to rank ``i``."""
        if len(values) != self.size:
            raise ValueError("reduce_scatter requires one value per rank")
        combined = yield from self._collective(
            "reduce_scatter",
            list(values),
            lambda v: [
                reduce_values([v[r][slot] for r in range(self.size)], op)
                for slot in range(self.size)
            ],
            lambda v: self._costs().reduce_scatter_s(
                max(
                    sum(payload_nbytes(x) for x in row)
                    for row in v.values()
                )
            ),
        )
        return combined[self.rank]

    def scan(self, value: Any, op: str = "sum"):
        """MPI_Scan: inclusive prefix reduction over rank order."""
        prefixes = yield from self._collective(
            "scan",
            value,
            lambda v: [
                reduce_values([v[r] for r in range(upto + 1)], op)
                for upto in range(self.size)
            ],
            lambda v: self._costs().scan_s(payload_nbytes(v[0])),
        )
        return prefixes[self.rank]

    def exscan(self, value: Any, op: str = "sum"):
        """MPI_Exscan: exclusive prefix reduction (rank 0 returns None)."""
        prefixes = yield from self._collective(
            "exscan",
            value,
            lambda v: [None]
            + [
                reduce_values([v[r] for r in range(upto + 1)], op)
                for upto in range(self.size - 1)
            ],
            lambda v: self._costs().scan_s(payload_nbytes(v[0])),
        )
        return prefixes[self.rank]

    def alltoall(self, values: Sequence[Any]):
        """MPI_Alltoall: rank i's element j goes to rank j's slot i."""
        if len(values) != self.size:
            raise ValueError("alltoall requires one value per rank")
        matrix = yield from self._collective(
            "alltoall",
            list(values),
            lambda v: v,
            lambda v: self._costs().alltoall_s(
                max(
                    payload_nbytes(x)
                    for row in v.values()
                    for x in row
                )
            ),
        )
        return [matrix[src][self.rank] for src in range(self.size)]

    def alltoallv(self, values: Sequence[Any]):
        """MPI_Alltoallv: like alltoall but costs follow the heaviest rank."""
        if len(values) != self.size:
            raise ValueError("alltoallv requires one value per rank")
        matrix = yield from self._collective(
            "alltoallv",
            list(values),
            lambda v: v,
            lambda v: self._costs().alltoallv_s(
                max(
                    sum(payload_nbytes(x) for x in row)
                    for row in v.values()
                )
            ),
        )
        return [matrix[src][self.rank] for src in range(self.size)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Comm rank {self.rank}/{self.size} on {self.job.machine}>"
