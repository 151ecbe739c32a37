"""Schedule-invariance certification of experiment drivers.

``certify_driver`` re-executes a registered driver K+1 times: once under
the identity tie-break order (today's insertion order, bit-identical to
a normal run) and K times under seeded permutations of the event queue's
tie-breaking (:mod:`repro.simrace.permute`). Each execution is reduced
to a canonical JSON blob over

* the driver's :class:`~repro.core.experiment.ExperimentResult` rows
  (``to_dict`` preserves column order, so the comparison is
  byte-faithful),
* every obs counter total recorded under a fresh installed tracer, and
* the DES companion report, when the driver module defines one — the
  companion is where most drivers' event-queue activity lives.

If every permuted blob equals the baseline, the driver is
*schedule-invariant*: its published numbers cannot depend on same-time
event ordering (docs/DETERMINISM.md).
``tests/experiments/test_schedule_invariance.py`` certifies every
registered driver this way.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Optional, Tuple

from repro.runner.fingerprint import canonical_json
from repro.simrace.permute import permutation_seeds, tie_break_permutation

DEFAULT_PERMUTATIONS = 4


def _clear_module_memoization(module) -> None:
    """Reset every ``functools`` memo cache defined at module level.

    Drivers memoize expensive sweeps (``@lru_cache``) so the reproduce
    and render passes share one simulation. Certification must defeat
    that: a cached sweep would neither re-run under the permuted
    tie-break (masking true divergence) nor re-record its counters
    (faking divergence in the totals).
    """
    for value in vars(module).values():
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()


def _execution_blob(exp_id: str) -> Dict[str, Any]:
    """One full driver execution reduced to comparable data."""
    from repro.core.registry import get_experiment
    from repro.obs.tracer import Tracer, installed

    driver = get_experiment(exp_id)
    _clear_module_memoization(importlib.import_module(driver.__module__))
    with installed(Tracer(meta={"exp_id": exp_id, "command": "race"})) as tracer:
        result = driver()
        module = importlib.import_module(driver.__module__)
        companion = getattr(module, "des_companion", None)
        report = companion() if companion is not None else None
    return {
        "result": result.to_dict(),
        "counters": tracer.counter_totals(),
        "companion": report,
    }


def first_divergence(
    baseline: Any, permuted: Any, path: str = "$"
) -> Optional[Tuple[str, Any, Any]]:
    """First differing ``(path, baseline value, permuted value)``, or None.

    Walks dicts (sorted keys) and lists in parallel; scalar mismatch
    reports the values, shape mismatch reports the containers.
    """
    if type(baseline) is not type(permuted):
        return (path, baseline, permuted)
    if isinstance(baseline, dict):
        if sorted(baseline) != sorted(permuted):
            return (path, sorted(baseline), sorted(permuted))
        for key in sorted(baseline):
            hit = first_divergence(baseline[key], permuted[key], f"{path}.{key}")
            if hit is not None:
                return hit
        return None
    if isinstance(baseline, list):
        if len(baseline) != len(permuted):
            return (path, f"len={len(baseline)}", f"len={len(permuted)}")
        for i, (a, b) in enumerate(zip(baseline, permuted)):
            hit = first_divergence(a, b, f"{path}[{i}]")
            if hit is not None:
                return hit
        return None
    if baseline != permuted:
        return (path, baseline, permuted)
    return None


def certify_driver(
    exp_id: str, k: int = DEFAULT_PERMUTATIONS
) -> Optional[Dict[str, Any]]:
    """Certify one driver: ``None`` if it is schedule-invariant, else the
    first divergence as ``{"seed", "path", "baseline", "permuted"}``."""
    seeds = permutation_seeds(k=k)
    with tie_break_permutation(None):  # identity baseline, explicit
        baseline = _execution_blob(exp_id)
    baseline_json = canonical_json(baseline)
    for seed in seeds:
        with tie_break_permutation(seed):
            permuted = _execution_blob(exp_id)
        if canonical_json(permuted) != baseline_json:
            path, base_val, perm_val = first_divergence(baseline, permuted)
            return {
                "seed": seed,
                "path": path,
                "baseline": base_val,
                "permuted": perm_val,
            }
    return None
