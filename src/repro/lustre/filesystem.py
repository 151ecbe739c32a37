"""The Lustre server side: one MDS, several OSSes, their OSTs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.machine.specs import GIGA, MICRO
from repro.simengine import Delay, Event, Simulator
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


class LustreFilesystem:
    """Server-side state living inside a simulation.

    Data service: each OSS is a single serial pipe at
    ``oss_bandwidth_GBs`` — concurrent chunks destined to the same OSS
    queue behind each other. Metadata service: the single MDS is a serial
    server with a fixed per-operation latency; its queueing is the
    "bottleneck in metadata operations at large scales" of paper §2.
    Each server is the time it is next free (a FIFO queue in closed
    form): a request is booked on arrival and never withdrawn, since
    only rank processes are ever interrupted and none does Lustre I/O.
    """

    def __init__(self, sim: Simulator, config: Optional[LustreConfig] = None) -> None:
        self.sim = sim
        self.config = config or LustreConfig()
        self._mds_free_at = 0.0
        self._oss_free_at: List[float] = [0.0] * self.config.num_oss
        self._files: Dict[str, _File] = {}
        self._next_ost = 0
        #: Completed metadata operations (diagnostics).
        self.mds_ops = 0
        #: Bytes moved through each OSS (diagnostics).
        self.oss_bytes: List[int] = [0] * self.config.num_oss

    # -- metadata ---------------------------------------------------------
    def metadata_op(self):
        """Process-helper: serialize one operation through the MDS, from
        when it is next free. Traced, it records its wait and hold on
        track ``res/MDS``, as a data chunk does on its OSS track."""
        sim = self.sim
        now = sim.now
        start = self._mds_free_at
        start = start if start > now else now
        self._mds_free_at = end = start + self.config.mds_op_latency_us * MICRO
        done = Event(sim, "MDS")
        sim.schedule_at(end, done.succeed)
        yield done
        self.mds_ops += 1
        tracer = sim.tracer
        if tracer is not None:
            if start > now:
                tracer.complete("res/MDS", "res.acquire", now, start)
            tracer.complete("res/MDS", "res.hold", start, end)

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
    def transfer(self, file: _File, offset: int, nbytes: int, write: bool):
        """Process-helper: move ``nbytes`` at ``offset`` through the OSSes.

        OST ``i`` is served by OSS ``i % num_oss``, so a file's stripe set
        spreads across servers. Each chunk holds its OSS pipe for
        ``chunk / bandwidth`` from when the pipe is next free (a FIFO queue
        in closed form); the caller resumes through one queue entry at the
        last chunk's end.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        chunks = file.layout.chunks(offset, nbytes)
        if chunks:
            sim = self.sim
            now = sim.now
            tracer = sim.tracer
            rate = self.config.oss_bandwidth_GBs * GIGA
            num_oss = self.config.num_oss
            free_at = self._oss_free_at
            last = now
            for ost, chunk in chunks:
                oss_idx = ost % num_oss
                self.oss_bytes[oss_idx] += chunk
                start = free_at[oss_idx]
                start = start if start > now else now
                free_at[oss_idx] = end = start + chunk / rate
                last = end if end > last else last
                if tracer is not None:
                    track = f"res/OSS{oss_idx}"
                    if start > now:
                        tracer.complete(track, "res.acquire", now, start)
                    tracer.complete(track, "res.hold", start, end)
            done = Event(sim, "transfer")
            sim.schedule_at(last, done.succeed)
            yield done
        else:
            # No chunks: still resume through a queue entry at this time.
            yield Delay(0.0)
        if write:
            file.size = max(file.size, offset + nbytes)
