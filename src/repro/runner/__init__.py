"""Content-addressed experiment runner.

``repro all`` used to replay all 26 drivers from scratch on every
invocation. This package makes re-execution cheap and reproducible, the
property the paper's artifact (and any large simulation sweep) lives
on:

* :mod:`repro.runner.fingerprint` — derives a SHA-256 cache key from
  the experiment id, one digest of the whole ``repro`` source tree and
  the fault-plan hash;
* :mod:`repro.runner.cache` — a content-addressed store of results and
  their shape-check verdicts under ``.repro-cache/``, with atomic
  writes and corruption-as-miss reads;
* :mod:`repro.runner.runner` — :class:`ExperimentRunner`, which checks
  the cache, runs the misses in-process one after another, shape-checks
  and stores each result before the next driver starts (so the cache is
  also the run's journal: re-running an interrupted run resumes it),
  and reports cache/wall-time counters through :mod:`repro.obs`. A run
  served wholly from the cache imports no driver and no numpy;
* :mod:`repro.runner.atomic` — SIGINT deferral around the atomic
  publish step, so Ctrl-C never tears an on-disk write;
* :mod:`repro.runner.cache_cli` — ``repro cache verify``, which finds
  (and with ``--delete`` removes) torn, misplaced and abandoned files.

See docs/RUNNER.md for the cache layout and CLI semantics
(``repro all [--force] [--no-cache]``).
"""

from repro.runner.atomic import defer_sigint
from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    CacheEntry,
    ResultCache,
)
from repro.runner.fingerprint import (
    NO_FAULTS,
    cache_key,
    cache_key_for,
    fault_plan_hash,
    source_digest,
)
from repro.runner.runner import ExperimentRunner, RunOutcome

__all__ = [
    "CacheEntry",
    "DEFAULT_CACHE_DIR",
    "ExperimentRunner",
    "NO_FAULTS",
    "ResultCache",
    "RunOutcome",
    "cache_key",
    "cache_key_for",
    "defer_sigint",
    "fault_plan_hash",
    "source_digest",
]
