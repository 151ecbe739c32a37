"""Cache-aware, serial execution of experiment drivers.

:class:`ExperimentRunner` is the engine behind ``repro all``:

* resolves the requested ids against the registry and returns outcomes
  in **registry (sorted) order**;
* consults the content-addressed :class:`~repro.runner.cache.ResultCache`
  first: a hit rehydrates the stored
  :class:`~repro.core.experiment.ExperimentResult` and its stored
  shape-check verdict without importing, let alone executing, a single
  driver;
* runs each miss in-process, runs the driver's ``shape_checks`` on the
  fresh result, and stores both *before* starting the next one, so the
  cache doubles as the run's journal: an interrupted or killed run
  loses at most the driver in flight, and re-running resumes warm from
  everything that completed;
* surfaces per-experiment wall time and cache hit/miss totals through
  the :mod:`repro.obs` counter layer (``runner.cache.hits``,
  ``runner.cache.misses``, ``runner.exp[<id>].wall_s``) whenever a
  tracer is supplied or installed.

Wall-clock reads below are deliberate: the runner measures *host*
execution cost of the simulators, not simulated time, so the simlint
nondeterminism rule is suppressed at those sites.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.core.experiment import ExperimentResult
from repro.core.registry import check_shape, get_experiment, resolve_ids
from repro.obs import Tracer, current_tracer
from repro.runner.cache import CacheEntry, ResultCache
from repro.runner.fingerprint import cache_key_for


class RunOutcome:
    """One experiment's result plus how it was obtained.

    ``wall_s`` is the driver execution time; for cache hits it is the
    *stored* execution time of the original run (the hit itself costs
    only a JSON load). ``passed`` is the shape-check verdict: checked
    live on an execution, stored with the entry on a hit.
    """

    def __init__(
        self,
        exp_id: str,
        result: ExperimentResult,
        from_cache: bool,
        wall_s: float,
        passed: bool,
        key: Optional[str] = None,
    ) -> None:
        self.exp_id = exp_id
        self.result = result
        self.from_cache = from_cache
        self.wall_s = wall_s
        self.passed = passed
        self.key = key


class ExperimentRunner:
    """Run experiments in-process, serving and filling a result cache.

    :param cache: result store; ``None`` disables caching entirely
        (every run executes, nothing is stored) — the ``--no-cache``
        path.
    :param force: execute even on a cache hit and overwrite the entry
        (``--force``).
    :param faults_path: JSON fault plan installed around every driver;
        its hash is part of every cache key, so injected runs never
        alias fault-free ones.
    :param trace_dir: when set, each *executed* experiment writes a
        Perfetto trace to ``<trace_dir>/<exp_id>.trace.json``. Tracing
        implies execution — a cache hit cannot regenerate a trace — so
        the cache is bypassed (not read, not written) for the
        invocation.
    :param pstats_dir: when set, each experiment runs under
        :mod:`cProfile` and writes its host-time profile to
        ``<pstats_dir>/<exp_id>.pstats``. Like tracing, profiling
        implies execution and bypasses the cache.
    :param tracer: receives the runner's own counters; defaults to the
        process-wide installed tracer, if any.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        force: bool = False,
        faults_path: Optional[str] = None,
        trace_dir: Optional[str] = None,
        pstats_dir: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cache = cache
        self.force = bool(force)
        self.faults_path = faults_path
        self.trace_dir = trace_dir
        self.pstats_dir = pstats_dir
        self.tracer = tracer
        self.hits = 0
        self.misses = 0

    # -- key derivation ---------------------------------------------------
    def key_for(self, exp_id: str) -> str:
        """The content-address of ``exp_id`` under the current inputs."""
        return cache_key_for(exp_id, self.faults_path)

    # -- execution --------------------------------------------------------
    def run(self, exp_ids: Optional[List[str]] = None) -> List[RunOutcome]:
        """Run ``exp_ids`` (default: all), one after another.

        Returns one :class:`RunOutcome` per id, in registry order. Each
        executed result is in the cache before the next driver starts.
        """
        caching = (
            self.cache is not None
            and self.trace_dir is None
            and self.pstats_dir is None
        )
        outcomes: List[RunOutcome] = []
        for exp_id in resolve_ids(exp_ids):
            key = self.key_for(exp_id) if caching else None
            entry = (
                self.cache.get(key)
                if (caching and not self.force)
                else None
            )
            if entry is not None:
                outcomes.append(
                    RunOutcome(
                        exp_id, entry.result, True, entry.wall_s,
                        entry.passed, key,
                    )
                )
                continue
            result, wall_s = self._execute(exp_id)
            passed = check_shape(exp_id, result).passed
            if key is not None:
                self.cache.put(
                    CacheEntry(
                        key=key,
                        exp_id=exp_id,
                        wall_s=wall_s,
                        passed=passed,
                        result=result,
                    )
                )
            outcomes.append(
                RunOutcome(exp_id, result, False, wall_s, passed, key)
            )
        self._publish(outcomes)
        return outcomes

    def _execute(self, exp_id: str) -> Tuple[ExperimentResult, float]:
        """Run one driver under the fault plan, tracer and profiler."""
        from repro.experiments.common import (
            faults_from,
            profiling_to,
            tracing_to,
        )

        trace_path = (
            f"{self.trace_dir}/{exp_id}.trace.json" if self.trace_dir else None
        )
        with faults_from(self.faults_path), \
                tracing_to(trace_path, exp_id=exp_id), \
                profiling_to(self.pstats_dir, exp_id):
            t0 = time.perf_counter()  # simlint: ignore[SL201]
            result = get_experiment(exp_id)()
            wall_s = time.perf_counter() - t0  # simlint: ignore[SL201]
        return result, wall_s

    # -- telemetry --------------------------------------------------------
    def _publish(self, outcomes: List[RunOutcome]) -> None:
        """Update hit/miss totals and mirror them onto the tracer.

        Counter timestamps are the outcome's index in registry order —
        a deterministic "time" axis, so two runs over the same tree
        export identical hit/miss counter series even though host wall
        times differ.
        """
        self.hits = sum(1 for o in outcomes if o.from_cache)
        self.misses = len(outcomes) - self.hits
        tracer = self.tracer if self.tracer is not None else current_tracer()
        if tracer is None:
            return
        for i, o in enumerate(outcomes):
            name = "runner.cache.hits" if o.from_cache else "runner.cache.misses"
            tracer.add(name, float(i), 1.0)
            tracer.add(f"runner.exp[{o.exp_id}].wall_s", float(i), o.wall_s)
