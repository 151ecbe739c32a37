"""Rank → (node, core) placement for MPI jobs."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.machine.specs import Machine
from repro.network.topology import Torus3D
from repro.simengine.rng import fork


class Placement:
    """Assigns MPI ranks to node slots under the machine's execution mode.

    Strategies:

    * ``contiguous`` (default, matches ``yod``/``aprun`` defaults): ranks
      fill node 0's task slots, then node 1's, … In VN mode consecutive
      even/odd ranks share a socket.
    * ``random``: a seeded shuffle of the contiguous layout — used to probe
      placement sensitivity (the paper notes PTRANS variance "due to job
      layout topology").
    """

    def __init__(
        self,
        machine: Machine,
        ntasks: int,
        strategy: str = "contiguous",
        seed: Optional[int] = None,
    ) -> None:
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        if ntasks > machine.max_tasks:
            raise ValueError(
                f"{ntasks} tasks exceed {machine}: max {machine.max_tasks}"
            )
        self.machine = machine
        self.ntasks = ntasks
        self.strategy = strategy
        self.torus = Torus3D(machine.torus_dims)
        per = machine.tasks_per_node
        slots = [(r // per, r % per) for r in range(ntasks)]
        if strategy == "contiguous":
            pass
        elif strategy == "random":
            fork("placement", seed).shuffle(slots)
        else:
            raise ValueError(f"unknown placement strategy {strategy!r}")
        self._node: List[int] = [s[0] for s in slots]
        self._core: List[int] = [s[1] for s in slots]
        #: node → number of this job's tasks placed on it.
        self._tasks_on: Dict[int, int] = Counter(self._node)

    # -- lookups -------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        return self._node[rank]

    def core_of(self, rank: int) -> int:
        return self._core[rank]

    def same_node(self, a: int, b: int) -> bool:
        return self._node[a] == self._node[b]

    def hops(self, a: int, b: int) -> int:
        """Torus hops between two ranks' nodes (0 when co-located)."""
        na, nb = self._node[a], self._node[b]
        return 0 if na == nb else self.torus.hops(na, nb)

    @property
    def num_nodes_used(self) -> int:
        return len(set(self._node))

    def ranks_on_node(self, node: int) -> List[int]:
        return [r for r, n in enumerate(self._node) if n == node]

    def tasks_sharing_nic(self, rank: int) -> int:
        """How many job tasks share ``rank``'s NIC (1 in SN mode)."""
        return self._tasks_on[self._node[rank]]
