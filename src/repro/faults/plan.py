"""Deterministic fault plans: what breaks, when, for how long.

A :class:`FaultPlan` is an explicit, time-ordered list of
:class:`FaultEvent` records — either authored by hand / loaded from JSON,
or sampled from per-component MTBF rates with :meth:`FaultPlan.sample`
(all randomness through :func:`repro.simengine.rng.fork`, so a plan is a
pure function of its seed). The plan is *data only*: it is executed
against a live simulation by :class:`repro.faults.injector.FaultInjector`.

Like the tracer, a plan can be installed process-globally
(:func:`install_plan` / :func:`installed_plan`) so the ``--faults`` CLI
flag reaches jobs constructed deep inside experiment drivers. An
installed *empty* plan is an explicit "no faults" shield: it satisfies
the lookup but schedules nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.simengine.rng import fork

#: Recognised fault kinds, in documentation order.
KINDS = ("link_down", "nic_stall", "mem_throttle", "os_noise", "node_crash")

Link = Tuple[Tuple[int, int, int], int, int]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``t_s`` is the simulated injection time. Which other fields matter
    depends on ``kind``:

    * ``link_down`` — ``link`` goes down for ``duration_s`` seconds
      (0 = permanently);
    * ``nic_stall`` — ``node``'s NIC accepts no traffic for
      ``duration_s`` seconds;
    * ``mem_throttle`` — ``node``'s memory controller runs ``factor``×
      slower for ``duration_s`` seconds;
    * ``os_noise`` — ``node``'s cores run ``factor``× slower for
      ``duration_s`` seconds (OS-noise jitter window);
    * ``node_crash`` — ``node`` dies (job-level recovery decides what
      happens next).
    """

    t_s: float
    kind: str
    node: Optional[int] = None
    link: Optional[Link] = None
    duration_s: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.t_s < 0:
            raise ValueError(f"negative fault time {self.t_s!r}")
        if self.duration_s < 0:
            raise ValueError(f"negative fault duration {self.duration_s!r}")
        if self.kind == "link_down":
            if self.link is None:
                raise ValueError("link_down requires a link")
        elif self.node is None:
            raise ValueError(f"{self.kind} requires a node")
        if self.kind in ("mem_throttle", "os_noise") and self.factor < 1.0:
            raise ValueError(
                f"{self.kind} factor must be >= 1 (slowdown), got {self.factor!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"t_s": self.t_s, "kind": self.kind}
        if self.node is not None:
            d["node"] = self.node
        if self.link is not None:
            (x, y, z), dim, direction = self.link
            d["link"] = [[x, y, z], dim, direction]
        if self.duration_s:
            d["duration_s"] = self.duration_s
        if self.factor != 1.0:
            d["factor"] = self.factor
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultEvent":
        link = d.get("link")
        if link is not None:
            (x, y, z), dim, direction = link
            link = ((int(x), int(y), int(z)), int(dim), int(direction))
        return cls(
            t_s=float(d["t_s"]),
            kind=str(d["kind"]),
            node=d.get("node"),
            link=link,
            duration_s=float(d.get("duration_s", 0.0)),
            factor=float(d.get("factor", 1.0)),
        )


class FaultPlan:
    """A time-ordered schedule of faults (stable-sorted on construction)."""

    def __init__(self, events: Optional[List[FaultEvent]] = None) -> None:
        self.events = sorted(events or (), key=lambda e: e.t_s)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"version": 1, "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultPlan":
        return cls([FaultEvent.from_dict(e) for e in d.get("events", [])])

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- sampling ----------------------------------------------------------
    @classmethod
    def sample(
        cls,
        horizon_s: float,
        num_nodes: int,
        torus_dims: Optional[Tuple[int, int, int]] = None,
        *,
        node_mtbf_s: Optional[float] = None,
        link_mtbf_s: Optional[float] = None,
        nic_mtbf_s: Optional[float] = None,
        mem_mtbf_s: Optional[float] = None,
        noise_mtbf_s: Optional[float] = None,
        link_outage_s: float = 0.0,
        nic_stall_s: float = 100e-6,
        mem_throttle_s: float = 1e-3,
        mem_factor: float = 2.0,
        noise_window_s: float = 50e-6,
        noise_factor: float = 1.5,
        seed: Optional[int] = None,
    ) -> "FaultPlan":
        """Draw a plan from per-component MTBF rates over ``[0, horizon_s)``.

        Each ``*_mtbf_s`` is the mean time between failures of *one*
        component of that kind (node / directed link / NIC / memory
        controller / per-node noise source); ``None`` disables the kind.
        Arrivals are a Poisson process per kind with aggregate rate
        ``num_components / mtbf``; the affected component is drawn
        uniformly. Each kind uses its own ``fork(f"faults.{kind}")``
        stream, so enabling one never perturbs another.
        """
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {horizon_s!r}")
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes!r}")
        events: List[FaultEvent] = []

        def arrivals(kind: str, n_components: int, mtbf_s: float) -> List[float]:
            rng = fork(f"faults.{kind}", seed)
            rate = n_components / mtbf_s
            out, t = [], 0.0
            while True:
                t += rng.expovariate(rate)
                if t >= horizon_s:
                    return out
                out.append(t)

        if node_mtbf_s is not None:
            rng = fork("faults.node_crash.pick", seed)
            for t in arrivals("node_crash", num_nodes, node_mtbf_s):
                events.append(FaultEvent(
                    t_s=t, kind="node_crash",
                    node=rng.randrange(num_nodes),
                ))
        if link_mtbf_s is not None:
            if torus_dims is None:
                raise ValueError("link_mtbf_s requires torus_dims")
            links = _all_links(torus_dims)
            rng = fork("faults.link_down.pick", seed)
            for t in arrivals("link_down", len(links), link_mtbf_s):
                events.append(FaultEvent(
                    t_s=t, kind="link_down",
                    link=links[rng.randrange(len(links))],
                    duration_s=link_outage_s,
                ))
        if nic_mtbf_s is not None:
            rng = fork("faults.nic_stall.pick", seed)
            for t in arrivals("nic_stall", num_nodes, nic_mtbf_s):
                events.append(FaultEvent(
                    t_s=t, kind="nic_stall",
                    node=rng.randrange(num_nodes),
                    duration_s=nic_stall_s,
                ))
        if mem_mtbf_s is not None:
            rng = fork("faults.mem_throttle.pick", seed)
            for t in arrivals("mem_throttle", num_nodes, mem_mtbf_s):
                events.append(FaultEvent(
                    t_s=t, kind="mem_throttle",
                    node=rng.randrange(num_nodes),
                    duration_s=mem_throttle_s, factor=mem_factor,
                ))
        if noise_mtbf_s is not None:
            rng = fork("faults.os_noise.pick", seed)
            for t in arrivals("os_noise", num_nodes, noise_mtbf_s):
                events.append(FaultEvent(
                    t_s=t, kind="os_noise",
                    node=rng.randrange(num_nodes),
                    duration_s=noise_window_s, factor=noise_factor,
                ))
        return cls(events)


def _all_links(dims: Tuple[int, int, int]) -> List[Link]:
    """Every directed link of a torus, in deterministic node/dim order."""
    from repro.network.topology import Torus3D

    torus = Torus3D(tuple(dims))
    links: List[Link] = []
    for node in torus:
        c = torus.coord(node)
        for d in range(3):
            if dims[d] == 1:
                continue
            directions = (1,) if dims[d] == 2 else (1, -1)
            for direction in directions:
                links.append((c, d, direction))
    return links


# -- process-global installation (mirrors repro.obs.tracer) -----------------
_CURRENT_PLAN: Optional[FaultPlan] = None


def current_plan() -> Optional[FaultPlan]:
    """The installed fault plan, or ``None`` when faults are off."""
    return _CURRENT_PLAN


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the fallback for new jobs (``--faults`` CLI)."""
    global _CURRENT_PLAN
    _CURRENT_PLAN = plan
    return plan


def uninstall_plan() -> None:
    """Remove the installed plan (new jobs run fault-free)."""
    global _CURRENT_PLAN
    _CURRENT_PLAN = None


@contextmanager
def installed_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install a plan for the duration of a ``with`` block."""
    global _CURRENT_PLAN
    previous = _CURRENT_PLAN
    _CURRENT_PLAN = plan
    try:
        yield plan
    finally:
        _CURRENT_PLAN = previous
