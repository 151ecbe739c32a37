"""Deliberately hot-path-hostile module: SL901 fires here.

Seeded violations (see tests/lint/test_perf_rules.py):

* SL901 — per-event lambdas passed to ``schedule`` / ``schedule_at``
"""


class Engine:
    def __init__(self, sim):
        self.sim = sim

    def _tick(self):
        return None

    def pump(self, entries):
        for entry in entries:
            self.sim.schedule(0.0, lambda: self._tick())  # closure (SL901)
            yield entry
        self.sim.schedule_at(1.0, lambda: self._tick())  # closure (SL901)
