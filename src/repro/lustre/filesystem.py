"""The Lustre server side: one MDS, several OSSes, their OSTs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.machine.specs import GIGA, MICRO
from repro.simengine import AllOf, Event, Resource, Simulator
from repro.lustre.striping import StripeLayout


@dataclass(frozen=True)
class LustreConfig:
    """Filesystem sizing and calibrated service rates.

    Rates are representative of 2007-era hardware (CAL): an OSS moved a
    few hundred MB/s to its backing storage; the single MDS handled on
    the order of a few thousand metadata operations per second.
    """

    num_oss: int = 8
    osts_per_oss: int = 4
    oss_bandwidth_GBs: float = 0.35
    mds_op_latency_us: float = 300.0
    default_stripe_count: int = 4
    stripe_size: int = 1 << 20  # 1 MiB

    def __post_init__(self) -> None:
        if self.num_oss < 1 or self.osts_per_oss < 1:
            raise ValueError("need at least one OSS and one OST per OSS")
        if self.default_stripe_count < 1:
            raise ValueError("default_stripe_count must be >= 1")

    @property
    def total_osts(self) -> int:
        return self.num_oss * self.osts_per_oss

    @property
    def peak_bandwidth_GBs(self) -> float:
        return self.num_oss * self.oss_bandwidth_GBs


class _File:
    __slots__ = ("name", "layout", "size")

    def __init__(self, name: str, layout: StripeLayout) -> None:
        self.name = name
        self.layout = layout
        self.size = 0


class _Chunk:
    """One stripe chunk's pass through its OSS pipe, as a callback chain:
    :meth:`start` requests the OSS, the grant schedules the end of the
    ``hold``, and :meth:`finish` releases the OSS and counts ``left`` (a
    one-item list shared by the transfer's chunks) down, succeeding
    ``done`` with the last. It pushes the same queue entries, at the same
    times, as a process running ``Resource.use(hold)``."""

    __slots__ = ("oss", "hold", "left", "done")

    def __init__(self, oss: Resource, hold: float, left: list, done: Event) -> None:
        self.oss = oss
        self.hold = hold
        self.left = left
        self.done = done

    def start(self) -> None:
        self.oss.request().add_callback(self._granted)

    def _granted(self, _grant: Event) -> None:
        self.oss.sim.schedule(self.hold, self.finish)

    def finish(self) -> None:
        self.oss.release()
        self.left[0] -= 1
        if not self.left[0]:
            self.done.succeed()


class LustreFilesystem:
    """Server-side state living inside a simulation.

    Data service: each OSS is a single serial pipe at
    ``oss_bandwidth_GBs`` — concurrent chunks destined to the same OSS
    queue behind each other. Metadata service: the single MDS is a serial
    resource with a fixed per-operation latency; its queueing is the
    "bottleneck in metadata operations at large scales" of paper §2.
    """

    def __init__(self, sim: Simulator, config: Optional[LustreConfig] = None) -> None:
        self.sim = sim
        self.config = config or LustreConfig()
        self.mds = Resource(sim, capacity=1, name="MDS")
        self.oss = [
            Resource(sim, capacity=1, name=f"OSS{i}")
            for i in range(self.config.num_oss)
        ]
        self._files: Dict[str, _File] = {}
        self._next_ost = 0
        #: Completed metadata operations (diagnostics).
        self.mds_ops = 0
        #: Bytes moved through each OSS (diagnostics).
        self.oss_bytes: List[int] = [0] * self.config.num_oss

    # -- metadata ---------------------------------------------------------
    def metadata_op(self):
        """Process-helper: serialize one operation through the MDS."""
        yield from self.mds.use(self.config.mds_op_latency_us * MICRO)
        self.mds_ops += 1

    def create(self, name: str, stripe_count: Optional[int] = None):
        """Process-helper: create a file (one MDS op), allocating objects
        round-robin across OSTs. Returns the file handle."""
        if name in self._files:
            raise FileExistsError(name)
        count = stripe_count or self.config.default_stripe_count
        layout = StripeLayout(
            stripe_count=count,
            stripe_size=self.config.stripe_size,
            first_ost=self._next_ost % self.config.total_osts,
            total_osts=self.config.total_osts,
        )
        self._next_ost += count
        yield from self.metadata_op()
        f = _File(name, layout)
        self._files[name] = f
        return f

    def open(self, name: str):
        """Process-helper: open an existing file (one MDS op)."""
        if name not in self._files:
            raise FileNotFoundError(name)
        yield from self.metadata_op()
        return self._files[name]

    def lookup(self, name: str) -> _File:
        """Zero-cost handle access (already-opened files in tests)."""
        return self._files[name]

    # -- data ---------------------------------------------------------------
    def oss_of_ost(self, ost: int) -> int:
        """OST index → serving OSS: round-robin, so consecutive OSTs (and
        hence a file's stripe set) spread across servers."""
        return ost % self.config.num_oss

    def transfer(self, file: _File, offset: int, nbytes: int, write: bool):
        """Process-helper: move ``nbytes`` at ``offset`` through the OSSes.

        Each per-OST chunk holds its OSS pipe for ``chunk / bandwidth``;
        chunks to distinct OSSes proceed concurrently, each a
        :class:`_Chunk` chain started at the current time, and the caller
        resumes when the last one finishes.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        chunks = file.layout.chunks(offset, nbytes)
        if chunks:
            sim = self.sim
            done = Event(sim, "transfer")
            left = [len(chunks)]
            rate = self.config.oss_bandwidth_GBs * GIGA
            for ost, chunk in chunks:
                oss_idx = self.oss_of_ost(ost)
                self.oss_bytes[oss_idx] += chunk
                step = _Chunk(self.oss[oss_idx], chunk / rate, left, done)
                sim.schedule(0.0, step.start)
            yield done
        else:
            # No chunks: still resume through a queue entry at this time.
            yield AllOf(())
        if write:
            file.size = max(file.size, offset + nbytes)
