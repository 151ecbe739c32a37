"""The simulated communicator (mpi4py-flavoured, generator-based)."""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.machine.specs import MICRO
from repro.mpi.datatypes import WORD_TYPES, payload_nbytes, reduce_values
from repro.mpi.request import Request
from repro.network.simnet import INTRA_NODE_LATENCY_US
from repro.simengine import Delay, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.job import MPIJob

ANY_SOURCE = -1
ANY_TAG = -1

#: Fixed latency of an intra-node copy, in seconds.
_INTRA_NODE_S = INTRA_NODE_LATENCY_US * MICRO


class _Transfer:
    """One message from world rank ``source`` to world rank ``dest``:
    first in flight, then the message a receive takes from ``dest``'s
    mailbox.

    Its envelope is ``(context, source, tag)``. ``context`` is the
    sending communicator's group key — ``"world"``, or the key of a
    :meth:`Comm.split` product — so a receive only ever matches messages
    of its own communicator.

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
    * :meth:`finish` settles the route (charge, release, count) and
      delivers.

    Intra-node messages hold no resources: :meth:`start` → :meth:`copy`
    (after the fixed copy latency) → :meth:`copied`. The chain pushes
    straight onto the event queue at ``now + delay``, the sum
    :meth:`Simulator.schedule` would compute.

    The completion :class:`Event` is made only when a sender waits on a
    message still in flight (:meth:`completion`); ``delivered`` tells
    whether it has arrived.

    Traced, every path records the message's ``net.xfer`` span here, from
    the send to :meth:`deliver`, so a trace reads the same whichever path
    carried the message.
    """

    __slots__ = ("comm", "source", "dest", "tag", "context", "obj",
                 "nbytes", "key", "terms", "done", "reply", "delivered",
                 "path", "hold", "span")

    def __init__(
        self, comm: "Comm", dest: int, tag: Any, context: Any, obj: Any,
        nbytes: int, peer: tuple,
    ) -> None:
        self.comm = comm
        self.source = comm.rank
        self.dest = dest
        self.tag = tag
        self.context = context
        self.obj = obj
        self.nbytes = nbytes
        self.key = peer[2]
        #: The pair's static latency terms (``MPIJob.latency_terms``).
        self.terms = peer[3]
        self.done: Optional[Event] = None
        #: What ``done`` succeeds with: ``None``, or the message a
        #: ``sendrecv`` matched while this, its own send, was in flight.
        self.reply: Optional["_Transfer"] = None
        self.delivered = False
        comm._in_flight[dest] += 1
        tracer = comm._tracer
        self.span = None if tracer is None else tracer.begin(
            f"net/node{self.terms[1]}", "net.xfer", comm._sim.now,
            src=self.terms[1], dst=self.terms[2], bytes=nbytes,
        )

    # -- full DES ----------------------------------------------------------
    def run(self):
        job = self.comm.job
        terms = self.terms
        latency = job.price_latency_s(terms)
        route = yield from job.network.transfer(
            terms[1], terms[2], self.nbytes, latency
        )
        self.deliver(route)

    # -- keyed callback chain ----------------------------------------------
    def post(self) -> None:
        comm = self.comm
        now = comm._sim.now
        sharing = self.terms[0]
        if sharing > 1 or comm._in_flight[self.dest] > 1:
            # ``now + 0.0`` is ``now``.
            comm._push(now, self.start, self.key)
        # Static-latency fusion: an unshared or intra-node pair's price
        # reads no clock state, so ``start`` would only push the next
        # step at now + latency — push it here instead. The pushed entry
        # then takes an earlier sequence number, which orders it only
        # among same-time entries of its own key, i.e. of this pair's
        # other transfers; with none in flight there are none to reorder.
        elif sharing:
            comm._push(now + self.terms[3], self.arrive, self.key)
        else:
            comm._push(now + _INTRA_NODE_S, self.copy, self.key)

    def start(self) -> None:
        comm = self.comm
        terms = self.terms
        if terms[0] == 0:
            comm._push(comm._sim.now + _INTRA_NODE_S, self.copy, self.key)
        else:
            latency = comm.job.price_latency_s(terms)
            comm._push(comm._sim.now + latency, self.arrive, self.key)

    def arrive(self) -> None:
        comm = self.comm
        terms = self.terms
        claimed = comm._net.claim_idle(terms[1], terms[2], self.nbytes)
        if claimed is None:
            comm._sim._continue(
                self._carry(), f"xfer {comm.rank}->{self.dest}", self.key
            )
            return
        self.path, self.hold = claimed
        if self.nbytes:
            comm._push(comm._sim.now + self.hold, self.finish, self.key)
        else:
            self.finish()

    def _carry(self):
        terms = self.terms
        route = yield from self.comm._net.carry(terms[1], terms[2], self.nbytes)
        self.deliver(route)

    def finish(self) -> None:
        terms = self.terms
        self.comm._net.settle(
            terms[1], terms[2], self.path, self.nbytes, self.hold
        )
        self.deliver(self.path[0])

    def copy(self) -> None:
        if self.nbytes:
            comm = self.comm
            comm._push(
                comm._sim.now + comm._net.copy_s(self.nbytes),
                self.copied,
                self.key,
            )
        else:
            self.copied()

    def copied(self) -> None:
        node = self.terms[1]
        self.comm._net.settle(node, node)
        self.deliver()

    def deliver(self, route: Optional[list] = None) -> None:
        """Close the ``net.xfer`` span (``route`` is the route taken,
        ``None`` for an intra-node copy); hand the message to the first
        posted receive it matches, or leave it in the receiver's mailbox;
        then complete the send."""
        comm = self.comm
        if self.span is not None:
            if route is None:
                comm._tracer.end(self.span, comm._sim.now, intra_node=True)
            else:
                comm._tracer.end(self.span, comm._sim.now, hops=len(route))
        comm._in_flight[self.dest] -= 1
        box = comm.job.comms[self.dest]
        waiting = box._waiting
        for i, (evt, context, source, tag, payload, send) in enumerate(waiting):
            if (
                context == self.context
                and (source == ANY_SOURCE or source == self.source)
                and (tag == ANY_TAG or tag == self.tag)
            ):
                del waiting[i]
                if send is None or send.delivered:
                    evt.succeed(self.obj if payload else self)
                else:
                    # A sendrecv whose own send is still in flight: that
                    # send's delivery resumes the rank, once.
                    send.done, send.reply = evt, self
                break
        else:
            box._arrived.append(self)
        self.delivered = True
        if self.done is not None:
            self.done.succeed(self.reply)

    def completion(self) -> Event:
        """The event that succeeds on delivery, made on first request."""
        done = self.done
        if done is None:
            comm = self.comm
            done = self.done = Event(comm._sim, comm._peers[self.dest][0])
            if self.delivered:
                done.succeed(None)
        return done


class Comm:
    """One rank's view of the job communicator.

    All communication methods are process-helpers: call them with
    ``yield from`` inside a rank generator. Payloads are delivered intact;
    the simulated wall clock advances by the modelled cost.

    Each world rank has one mailbox: ``_arrived``, the messages delivered
    and not yet received, oldest first, and ``_waiting``, the receives
    posted and not yet matched, oldest first. A sub-communicator shares
    its rank's mailbox and matches on its own context.
    """

    def __init__(self, job: "MPIJob", rank: int) -> None:
        self.job = job
        self.rank = rank
        self.size = job.ntasks
        self._coll_seq = 0
        self._group_key: Any = "world"
        #: Group rank → world rank (the identity here; see SubComm).
        self._ranks: Sequence[int] = range(job.ntasks)
        #: The world communicator of this rank: it sends every message.
        self._world: "Comm" = self
        self._sim = job.sim
        self._push = job.sim._queue.push
        self._net = job.network
        # The mailbox (see the class docstring); a waiting receive is
        # (event, context, world source, tag, payload only).
        self._arrived: List[_Transfer] = []
        self._waiting: List[tuple] = []
        self._get_name = f"inbox[{rank}].get"
        # Destination → (isend name, transfer name, tie-break key, latency
        # terms), built once: a rank sends to the same few torus
        # neighbours thousands of times.
        self._peers: dict = {}
        # Destination → transfers from this rank not yet delivered.
        self._in_flight: Dict[int, int] = defaultdict(int)
        # The job's tracer, looked up once: an untraced operation pays one
        # ``is None`` test. Every operation records on the world rank's
        # track, sub-communicator calls included.
        self._tracer = job.sim.tracer
        self._track = f"rank{rank}"

    # -- group plumbing (overridden by SubComm) -------------------------------
    def _costs(self):
        return self.job.costs

    # -- clock ----------------------------------------------------------------
    def wtime(self) -> float:
        """Current simulated time (MPI_Wtime)."""
        return self._sim.now

    # -- tracing ----------------------------------------------------------------
    def _span(self, op: str, t0: float, nbytes: float) -> None:
        """Record ``mpi.<op>`` from ``t0`` to now, tagged with its bytes."""
        self._tracer.complete(
            self._track, f"mpi.{op}", t0, self._sim.now, bytes=nbytes
        )

    # -- local compute ----------------------------------------------------------
    def compute(self, flops: float, profile: str = "dgemm"):
        """Charge local computation time for ``flops`` of the given kernel,
        under this rank's static memory-sharing environment."""
        rank = self._world.rank
        dt = self.job.compute_time_s(rank, flops, profile)
        if self._tracer is not None:
            self.job.trace_local_phase(rank, dt, profile=profile)
        yield Delay(dt)
        return dt

    def stream(self, nbytes: float):
        """Charge local streaming-memory time for ``nbytes`` of traffic."""
        rank = self._world.rank
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
            self._tracer.instant(self._track, "mpi.isend", self._sim.now, bytes=n)
        return req

    def _isend(self, obj: Any, dest: int, tag: Any, n: int) -> _Transfer:
        """Untraced send of ``n`` bytes to group rank ``dest``; returns
        the message in flight."""
        if not 0 <= dest < self.size:
            self._check_peer(dest)  # raises
        if n < 0:
            raise ValueError("nbytes must be >= 0")
        world = self._world
        dest = self._ranks[dest]
        peer = world._peers.get(dest)
        if peer is None:
            # The tie-break key makes same-time transfer wakeups — and
            # hence NIC/link arbitration among simultaneous messages —
            # follow rank order deterministically instead of queue
            # insertion order, which is a schedule race (two exchanging
            # pairs in VN mode would otherwise pipeline differently per
            # tie-break permutation).
            rank = world.rank
            peer = world._peers[dest] = (
                f"isend {rank}->{dest}",
                f"xfer {rank}->{dest}",
                f"xfer:{rank:06d}->{dest:06d}",
                self.job.latency_terms(rank, dest),
            )
        xfer = _Transfer(world, dest, tag, self._group_key, obj, n, peer)
        if world._net.fast_path_open():
            xfer.post()
        else:
            self._sim.spawn(xfer.run(), name=peer[1], key=peer[2])
        return xfer

    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        """Blocking send: returns once the message is fully injected and
        delivered (conservative synchronous semantics)."""
        t0 = self._sim.now
        if nbytes is not None:
            n = int(nbytes)
        else:
            n = 8 if type(obj) in WORD_TYPES else payload_nbytes(obj)
        xfer = self._isend(obj, dest, tag, n)
        if not xfer.delivered:
            yield xfer.completion()
        if self._tracer is not None:
            self._span("send", t0, n)

    def _world_source(self, source: int) -> int:
        """World rank of group rank ``source``; ``ANY_SOURCE`` stays."""
        if source == ANY_SOURCE:
            return source
        if not 0 <= source < self.size:
            self._check_peer(source)  # raises
        return self._ranks[source]

    def _take(self, source: int, tag: Any) -> Optional[_Transfer]:
        """Remove and return the oldest arrived message of this
        communicator from world rank ``source`` with ``tag`` (either may
        be a wildcard), or ``None``."""
        context = self._group_key
        arrived = self._arrived
        for i, msg in enumerate(arrived):
            if (
                msg.context == context
                and (source == ANY_SOURCE or msg.source == source)
                and (tag == ANY_TAG or msg.tag == tag)
            ):
                del arrived[i]
                return msg
        return None

    def _post_recv(
        self,
        source: int,
        tag: Any,
        payload: bool = False,
        send: Optional[_Transfer] = None,
    ) -> Event:
        """Post a receive no arrived message matches: an event that the
        first matching delivery succeeds with the message (with just its
        payload when ``payload``) — or, when ``send`` (a ``sendrecv``'s
        own message) is still in flight at the match, that send's
        delivery does. An interrupted waiter withdraws it."""
        evt = Event(self._sim, self._get_name)
        evt.on_abandon(self._withdraw)
        self._waiting.append((evt, self._group_key, source, tag, payload, send))
        return evt

    def _withdraw(self, evt: Event) -> None:
        """Drop the posted receive of an interrupted waiter."""
        waiting = self._waiting
        for i, posted in enumerate(waiting):
            if posted[0] is evt:
                del waiting[i]
                return

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Start a nonblocking receive; the request's value is the payload."""
        source = self._world_source(source)
        msg = self._take(source, tag) if self._arrived else None
        if msg is None:
            done = self._post_recv(source, tag, payload=True)
        else:
            # Already arrived: the request completes now.
            done = Event(self._sim, f"irecv @{self.rank}").succeed(msg.obj)
        if self._tracer is not None:
            self._tracer.instant(self._track, "mpi.irecv", self._sim.now, bytes=0)
        return Request(done)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the payload object."""
        t0 = self._sim.now
        source = self._world_source(source)
        # A message that has already arrived is taken without an event.
        msg = self._take(source, tag) if self._arrived else None
        if msg is None:
            msg = yield self._post_recv(source, tag)
        if self._tracer is not None:
            self._span("recv", t0, 0)
        return msg.obj

    def recv_with_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns ``(payload, source, tag)``."""
        t0 = self._sim.now
        source = self._world_source(source)
        msg = self._take(source, tag) if self._arrived else None
        if msg is None:
            msg = yield self._post_recv(source, tag)
        if self._tracer is not None:
            self._span("recv", t0, 0)
        return msg.obj, self._ranks.index(msg.source), msg.tag

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: Optional[int] = None,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ):
        """Simultaneous exchange; returns the received payload."""
        t0 = self._sim.now
        if nbytes is not None:
            n = int(nbytes)
        else:
            n = 8 if type(obj) in WORD_TYPES else payload_nbytes(obj)
        xfer = self._isend(obj, dest, tag, n)
        if source is None or source == dest:
            source = xfer.dest  # ``dest`` passed _isend's check
        else:
            source = self._world_source(source)
        msg = self._take(source, tag) if self._arrived else None
        if msg is None:
            # Resumes once both the receive and the send are done.
            msg = yield self._post_recv(source, tag, send=xfer)
        elif not xfer.delivered:
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
        t0 = self._sim.now
        seq = self._coll_seq
        self._coll_seq += 1
        ctx = self.job.join_collective(
            self._group_key, seq, kind, self.size, self.rank, value
        )
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
        world_ranks = [self._ranks[r] for r in members]
        return SubComm(self._world, group_key, world_ranks)

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
