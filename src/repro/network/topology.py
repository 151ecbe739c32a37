"""3D torus topology: coordinates, dimension-order routing, cut metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

Coord = Tuple[int, int, int]
#: A directed link: (source coordinate, dimension 0..2, direction ±1).
Link = Tuple[Coord, int, int]


@dataclass(frozen=True)
class Torus3D:
    """A 3D torus of ``dims = (X, Y, Z)`` nodes with wrap-around links.

    Every node has six directed outgoing links (±x, ±y, ±z). Routing is
    deterministic dimension-order (x, then y, then z), each dimension
    taking the shorter way around the ring — the SeaStar's static routing
    discipline.
    """

    dims: Tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"invalid torus dims {self.dims}")

    # -- indexing -----------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        x, y, z = self.dims
        return x * y * z

    def coord(self, node_id: int) -> Coord:
        """Node id → (x, y, z), row-major with x fastest."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node id {node_id} out of range")
        x_dim, y_dim, _ = self.dims
        x = node_id % x_dim
        y = (node_id // x_dim) % y_dim
        z = node_id // (x_dim * y_dim)
        return (x, y, z)

    def node_id(self, coord: Coord) -> int:
        x, y, z = coord
        x_dim, y_dim, z_dim = self.dims
        if not (0 <= x < x_dim and 0 <= y < y_dim and 0 <= z < z_dim):
            raise ValueError(f"coordinate {coord} out of range for {self.dims}")
        return x + x_dim * (y + y_dim * z)

    # -- distances -----------------------------------------------------------
    @staticmethod
    def _ring_step(a: int, b: int, size: int) -> Tuple[int, int]:
        """(hop count, direction ±1) for the shorter way around a ring."""
        forward = (b - a) % size
        backward = (a - b) % size
        if forward == 0:
            return 0, 1
        if forward <= backward:
            return forward, 1
        return backward, -1

    def hops(self, a: int, b: int) -> int:
        """Minimal hop count between two nodes."""
        ca, cb = self.coord(a), self.coord(b)
        return sum(
            self._ring_step(ca[d], cb[d], self.dims[d])[0] for d in range(3)
        )

    @property
    def diameter(self) -> int:
        """Maximum minimal hop count between any node pair."""
        return sum(d // 2 for d in self.dims)

    @property
    def avg_hops_random_pair(self) -> float:
        """Expected hop count between two uniformly random (distinct) nodes.

        Exact ring expectation per dimension: for a ring of size ``n`` the
        mean shortest distance between two independent uniform endpoints is
        ``n/4`` for even ``n`` and ``(n² − 1)/(4n)`` for odd ``n``; summed
        over the three dimensions.
        """
        total = 0.0
        for n in self.dims:
            if n == 1:
                continue
            if n % 2 == 0:
                total += n / 4.0
            else:
                total += (n * n - 1) / (4.0 * n)
        return total

    # -- routing --------------------------------------------------------------
    def route(self, a: int, b: int) -> List[Link]:
        """Directed links crossed by dimension-order routing from a to b."""
        if a == b:
            return []
        cur = list(self.coord(a))
        dst = self.coord(b)
        links: List[Link] = []
        for d in range(3):
            steps, direction = self._ring_step(cur[d], dst[d], self.dims[d])
            for _ in range(steps):
                links.append(((cur[0], cur[1], cur[2]), d, direction))
                cur[d] = (cur[d] + direction) % self.dims[d]
        assert tuple(cur) == dst
        return links

    def _ring_links(
        self, cur: List[int], d: int, direction: int, steps: int
    ) -> List[Link]:
        """Links for ``steps`` hops along dimension ``d``; advances ``cur``."""
        links: List[Link] = []
        for _ in range(steps):
            links.append(((cur[0], cur[1], cur[2]), d, direction))
            cur[d] = (cur[d] + direction) % self.dims[d]
        return links

    def route_avoiding(self, a: int, b: int, blocked) -> Optional[List[Link]]:
        """Dimension-order route from a to b avoiding ``blocked`` links.

        Per dimension, if the preferred (shorter-way) ring segment crosses
        a blocked link, the route detours the long way around that ring
        instead — the static escape path a SeaStar-style router can fall
        back to when a link is marked down. Returns ``None`` when both
        directions of some dimension are blocked (destination unreachable
        under dimension-order routing).
        """
        if a == b:
            return []
        cur = list(self.coord(a))
        dst = self.coord(b)
        links: List[Link] = []
        for d in range(3):
            steps, direction = self._ring_step(cur[d], dst[d], self.dims[d])
            if steps == 0:
                continue
            trial = self._ring_links(list(cur), d, direction, steps)
            if any(link in blocked for link in trial):
                alt_steps = self.dims[d] - steps
                if alt_steps == 0:
                    return None
                trial = self._ring_links(list(cur), d, -direction, alt_steps)
                if any(link in blocked for link in trial):
                    return None
            links.extend(trial)
            cur[d] = dst[d]
        assert tuple(cur) == dst
        return links

    def neighbors(self, node_id: int) -> List[int]:
        """The (up to) six distinct torus neighbours of a node."""
        c = self.coord(node_id)
        seen = []
        for d in range(3):
            for direction in (1, -1):
                n = list(c)
                n[d] = (n[d] + direction) % self.dims[d]
                nid = self.node_id((n[0], n[1], n[2]))
                if nid != node_id and nid not in seen:
                    seen.append(nid)
        return seen

    # -- aggregate metrics ------------------------------------------------------
    @property
    def num_directed_links(self) -> int:
        """Six outgoing links per node (rings of length ≤ 2 collapse)."""
        total = 0
        for size in self.dims:
            if size == 1:
                continue
            per_node = 1 if size == 2 else 2
            total += per_node * self.num_nodes
        return total

    def bisection_links(self) -> int:
        """Directed links crossing the best balanced bisection.

        Cutting the largest dimension in half severs ``2`` rings' worth of
        links (the cut plane and the wrap-around) in each direction:
        ``4 × (product of the other two dims)`` directed links.
        """
        dims = sorted(self.dims)
        a, b, c = dims  # c is largest
        if c == 1:
            return 0
        wrap = 2 if c > 2 else 1
        return 2 * wrap * a * b

    def sub_torus_dims(self, n_nodes: int) -> Tuple[int, int, int]:
        """Approximate extents of an ``n_nodes``-node job partition.

        Scales this torus's aspect ratio down to enclose ``n_nodes``; used
        by the analytic model to size the bisection available to a job that
        occupies only part of the machine.
        """
        total = self.num_nodes
        if not 1 <= n_nodes <= total:
            raise ValueError(f"n_nodes {n_nodes} out of range")
        scale = (n_nodes / total) ** (1.0 / 3.0)
        dims = [max(1, round(d * scale)) for d in self.dims]
        # Grow the smallest dims until the box encloses the job.
        while dims[0] * dims[1] * dims[2] < n_nodes:
            i = min(range(3), key=lambda k: dims[k] / self.dims[k])
            dims[i] = min(self.dims[i], dims[i] + 1)
        return (dims[0], dims[1], dims[2])

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_nodes))
