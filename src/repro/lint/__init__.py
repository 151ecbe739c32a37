"""simlint — simulation-correctness static analysis for this repository.

The generator-based discrete-event MPI makes certain bugs *silent*: a
``comm.send(...)`` without ``yield from`` never runs, never advances the
simulated clock, and produces a plausible-looking wrong number. ``repro.lint``
is an AST-based checker that machine-checks the conventions the
simulator's correctness rests on, in four rule families
(:mod:`repro.lint.rules`):

* ``yield-from`` (SL101) — process-helper calls must be driven, not
  discarded;
* ``nondet`` (SL201–SL203) — no wall-clock time, no unseeded global RNG,
  no set-iteration ordering;
* ``resource-safety`` (SL501) — port grants are released in a
  ``finally``, so an interrupted process cannot leak slots;
* ``perf`` (SL901) — no per-event closures handed to the scheduler from
  process functions.

Every rule is per-file: one pass sees one module at a time, with no
cross-module index and no result cache. The rule set is what a mutation
audit kept (``docs/LINT.md``, "Audit"): each rule caught a seeded bug
that tier-1 misses. Schedule-order bugs are the job of the runtime
certifier (:mod:`repro.simrace`), which tier-1 runs over every driver.

Run it as ``python -m repro.lint [PATH ...]``; ``tests/test_lint_clean.py``
runs it over the tree in tier-1. Suppress a deliberate violation with
``# simlint: ignore[RULE]`` on the offending statement (any line of it)
or ``# simlint: ignore-file[RULE]`` for a whole module. Each rule is
documented in ``docs/LINT.md``.
"""

from repro.lint.core import Finding, lint_file, lint_paths, lint_source

__all__ = ["Finding", "lint_file", "lint_paths", "lint_source"]
