"""Sub-communicators (the product of :meth:`Comm.split`).

A :class:`SubComm` presents the full communicator API over a subset of
world ranks — the row/column communicators that real CAM remaps, POP
gather lines, and ScaLAPACK process grids are built from. Point-to-point
traffic rides the world ranks' mailboxes under the group's own context,
so sub-communicator messages can never match world (or sibling-group)
receives; collectives rendezvous in group-private contexts and are
priced by a cost model sized to the group.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.comm import Comm
from repro.mpi.costmodels import CollectiveCostModel


class SubComm(Comm):
    """A communicator over ``world_ranks`` (ordered) of the job."""

    def __init__(self, world_comm: Comm, group_key: Any, world_ranks: list) -> None:
        # Deliberately not calling Comm.__init__: the rank's mailbox,
        # peers and tracer track are the world communicator's.
        self.job = world_comm.job
        self._world = world_comm
        self._ranks = list(world_ranks)
        if world_comm.rank not in self._ranks:
            raise ValueError("calling rank is not a member of this group")
        self.rank = self._ranks.index(world_comm.rank)
        self.size = len(self._ranks)
        self._coll_seq = 0
        self._group_key = group_key
        self._sim = world_comm._sim
        self._arrived = world_comm._arrived
        self._waiting = world_comm._waiting
        self._get_name = world_comm._get_name
        self._tracer = world_comm._tracer
        self._track = world_comm._track
        self._costs_model = CollectiveCostModel.for_machine(
            self.job.model, self.size
        )

    def _costs(self) -> CollectiveCostModel:
        return self._costs_model

    @property
    def world_ranks(self) -> list:
        """World ranks of this group, in group order."""
        return list(self._ranks)

    # Every point-to-point call and collective is inherited: they are
    # written against the group's ranks, context and mailbox above, and
    # record their spans on the caller's world track.
