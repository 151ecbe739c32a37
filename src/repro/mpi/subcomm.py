"""Sub-communicators (the product of :meth:`Comm.split`).

A :class:`SubComm` presents the full communicator API over a subset of
world ranks — the row/column communicators that real CAM remaps, POP
gather lines, and ScaLAPACK process grids are built from. Point-to-point
traffic rides the world communicator's inboxes with group-scoped tags,
so sub-communicator messages can never match world (or sibling-group)
receives; collectives rendezvous in group-private contexts and are
priced by a cost model sized to the group.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Comm, _Transfer
from repro.mpi.costmodels import CollectiveCostModel


class SubComm(Comm):
    """A communicator over ``world_ranks`` (ordered) of the job."""

    def __init__(self, world_comm: Comm, group_key: Any, world_ranks: list) -> None:
        # Deliberately not calling Comm.__init__: no private inbox.
        self.job = world_comm.job
        self._world_comm = world_comm
        self._ranks = list(world_ranks)
        if world_comm.rank not in self._ranks:
            raise ValueError("calling rank is not a member of this group")
        self.rank = self._ranks.index(world_comm.rank)
        self.size = len(self._ranks)
        self._coll_seq = 0
        self._group_key = group_key
        self._tracer = world_comm._tracer
        self._track = world_comm._track
        self._costs_model = CollectiveCostModel.for_machine(
            self.job.model, self.size
        )

    # -- group plumbing -----------------------------------------------------
    def _costs(self) -> CollectiveCostModel:
        return self._costs_model

    def _root_comm(self) -> Comm:
        return self._world_comm

    def _world_rank_of(self, rank: int) -> int:
        return self._ranks[rank]

    @property
    def world_ranks(self) -> list:
        """World ranks of this group, in group order."""
        return list(self._ranks)

    # -- point to point (translated + tag-scoped) ------------------------------
    def _scoped(self, tag: int) -> tuple:
        return ("subcomm", self._group_key, tag)

    def _isend(self, obj: Any, dest: int, tag: Any, n: int) -> _Transfer:
        self._check_peer(dest)
        return self._world_comm._isend(obj, self._ranks[dest], self._scoped(tag), n)

    def _group_match(self, wsource: Optional[int], tag: int):
        key = ("subcomm", self._group_key)

        def match(m) -> bool:
            if not (isinstance(m.tag, tuple) and m.tag[:2] == key):
                return False
            if wsource is not None and m.source != wsource:
                return False
            return tag == ANY_TAG or m.tag[2] == tag

        return match

    def _mailbox(self, source: int, tag: Any):
        if source != ANY_SOURCE:
            self._check_peer(source)
            wsource: Optional[int] = self._ranks[source]
        else:
            wsource = None
        return self._world_comm._inbox, self._group_match(wsource, tag)

    def recv_with_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        obj, wsource, scoped = yield from super().recv_with_status(source, tag)
        return obj, self._ranks.index(wsource), scoped[2]

    # The public point-to-point calls and all collectives are inherited:
    # they are written against _isend/_mailbox/_collective and the group
    # plumbing above, and record their spans on the caller's world track.
