"""An IOR-style parallel I/O benchmark on the simulated Lustre.

IOR (paper ref. [14]) measures aggregate bandwidth for the two canonical
parallel I/O patterns:

* **file-per-process** — every client creates its own file (N metadata
  creates serialize through the single MDS);
* **single-shared-file** — one create, every client writes its own
  disjoint segment.

The benchmark exposes the two first-order Lustre behaviours the paper
describes: aggregate data bandwidth scales with OSS count until the
servers saturate, and metadata time grows linearly with clients because
"Lustre supports having just one MDS".
"""

from __future__ import annotations

from typing import Optional

from repro.lustre.client import LustreClient
from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.simengine import Simulator


class IORResult:
    """Outcome of one IOR run."""

    def __init__(
        self,
        pattern: str,
        num_clients: int,
        bytes_per_client: int,
        elapsed_s: float,
        metadata_s: float,
    ) -> None:
        self.pattern = pattern
        self.num_clients = num_clients
        self.bytes_per_client = bytes_per_client
        self.elapsed_s = elapsed_s
        self.metadata_s = metadata_s

    @property
    def aggregate_GBs(self) -> float:
        return self.num_clients * self.bytes_per_client / self.elapsed_s / 1.0e9


class IORBenchmark:
    """IOR write test against a fresh simulated filesystem."""

    def __init__(self, config: Optional[LustreConfig] = None) -> None:
        self.config = config

    def run(
        self,
        num_clients: int,
        bytes_per_client: int = 64 << 20,
        pattern: str = "file-per-process",
        stripe_count: Optional[int] = None,
    ) -> IORResult:
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if bytes_per_client < 1:
            raise ValueError("bytes_per_client must be >= 1")
        if pattern not in ("file-per-process", "single-shared-file"):
            raise ValueError(f"unknown pattern {pattern!r}")

        sim = Simulator()
        fs = LustreFilesystem(sim, self.config)
        clients = [LustreClient(fs, i) for i in range(num_clients)]
        meta_done_at = [0.0]

        shared_handle = {}

        def shared_creator():
            f = yield from clients[0].create("shared", stripe_count)
            shared_handle["f"] = f
            meta_done_at[0] = sim.now

        def writer_fpp(c: LustreClient):
            f = yield from c.create(f"file.{c.client_id}", stripe_count)
            meta_done_at[0] = max(meta_done_at[0], sim.now)
            yield from c.write(f, 0, bytes_per_client)

        def writer_ssf(c: LustreClient, creator):
            yield creator.done
            f = shared_handle["f"]
            yield from c.write(f, c.client_id * bytes_per_client, bytes_per_client)

        if pattern == "file-per-process":
            for c in clients:
                sim.spawn(writer_fpp(c))
        else:
            creator = sim.spawn(shared_creator())
            for c in clients:
                sim.spawn(writer_ssf(c, creator))

        sim.run()
        return IORResult(
            pattern=pattern,
            num_clients=num_clients,
            bytes_per_client=bytes_per_client,
            elapsed_s=sim.now,
            metadata_s=meta_done_at[0],
        )
