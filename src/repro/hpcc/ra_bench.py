"""HPCC SP/EP RandomAccess (Figure 6)."""

from __future__ import annotations

from repro.machine.processor import CoreModel
from repro.machine.specs import Machine


class RandomAccessBench:
    """Per-core giga-updates/s: low temporal *and* spatial locality."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        #: Built once per instance.
        self.core = CoreModel(machine)

    def sp_gups(self) -> float:
        """One busy core: the full socket update rate."""
        return self.core.random_access_gups(active_cores=1)

    def ep_gups(self) -> float:
        """Every core busy: the socket rate splits between cores."""
        return self.core.random_access_gups(active_cores=self.machine.active_cores_per_node)

    def run_numeric(self, table_bits: int = 16):
        """Run the real update kernel and return (error_fraction, modelled_s).

        ``error_fraction`` must be < 0.01 (the HPCC acceptance bound); the
        lookahead batch scales with the table as in the real benchmark so
        the collision rate stays inside tolerance.
        """
        import numpy as np

        from repro.kernels.randomaccess import (
            hpcc_random_stream,
            random_access_update,
            verify_random_access,
        )

        size = 1 << table_bits
        table = np.arange(size, dtype=np.uint64)
        stream = hpcc_random_stream(2 * size)
        updates = random_access_update(table, stream, batch=max(1, size >> 12))
        error = verify_random_access(table, stream)
        modelled_s = updates / (self.sp_gups() * 1.0e9)
        return error, modelled_s
