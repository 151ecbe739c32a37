"""S3D checkpoint I/O on the simulated Lustre filesystem.

The paper's application benchmarks explicitly ignore I/O (§6), but a
production S3D run checkpoints its full state regularly — and the paper
describes the Lustre stack those checkpoints hit (§2, Fig. 1). This
module sizes an S3D restart file (13 conserved variables per point:
density, momentum, energy, and a skeletal CO/H2 species set, §6.4) and
writes it through :mod:`repro.lustre` in either parallel I/O pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.lustre import IORBenchmark, LustreConfig

#: Conserved variables per grid point in the restart file.
STATE_VARIABLES = 13


@dataclass
class CheckpointStudy:
    """Checkpoint one S3D timestep's state for ``ntasks`` writers."""

    ntasks: int
    points_per_task: int = 50**3
    config: Optional[LustreConfig] = None

    def __post_init__(self) -> None:
        if self.ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        if self.points_per_task < 1:
            raise ValueError("points_per_task must be >= 1")

    @property
    def bytes_per_task(self) -> int:
        return self.points_per_task * STATE_VARIABLES * 8

    def write_time_s(self, pattern: str = "file-per-process") -> Tuple[float, float]:
        """Simulated ``(total_seconds, metadata_seconds)`` for one checkpoint."""
        config = self.config or LustreConfig()
        stripes = config.total_osts if pattern == "single-shared-file" else None
        run = IORBenchmark(config).run(
            self.ntasks, self.bytes_per_task, pattern, stripe_count=stripes
        )
        return run.elapsed_s, run.metadata_s

    def checkpoint_overhead_fraction(
        self, step_seconds: float, steps_between_checkpoints: int,
        pattern: str = "file-per-process",
    ) -> float:
        """Fraction of wall time a production run spends checkpointing."""
        if step_seconds <= 0 or steps_between_checkpoints < 1:
            raise ValueError("invalid cadence")
        write_s, _ = self.write_time_s(pattern)
        window = step_seconds * steps_between_checkpoints
        return write_s / (window + write_s)
