"""simlint — simulation-correctness static analysis for this repository.

The generator-based discrete-event MPI makes certain bugs *silent*: a
``comm.send(...)`` without ``yield from`` never runs, never advances the
simulated clock, and produces a plausible-looking wrong number. ``repro.lint``
is an AST-based checker suite that machine-checks the conventions the
simulator's correctness rests on:

* ``yield-from`` — process-helper results must be consumed
  (:mod:`repro.lint.check_yieldfrom`);
* ``nondet`` — no wall-clock time, no unseeded global RNG, no
  set-iteration ordering (:mod:`repro.lint.check_determinism`);
* ``resource-safety`` — resource grants are released in a ``finally`` so
  an interrupted process cannot leak slots
  (:mod:`repro.lint.check_resource_safety`);
* ``perf`` (SL901, :mod:`repro.lint.check_perf`) — no per-event
  closures handed to the scheduler from process functions.

Every rule is per-file: a checker sees one module at a time, with no
cross-module index and no result cache. The rule set is what a mutation
audit kept (``docs/LINT.md``, "Audit"): each family caught a seeded bug
that tier-1 misses. Schedule-order bugs are the job of the runtime
certifier (:mod:`repro.simrace`), which tier-1 runs over every driver.

Run it as ``python -m repro.lint [PATH ...]``; ``tests/test_lint_clean.py``
runs it over the tree in tier-1. Suppress a deliberate violation with
``# simlint: ignore[RULE]`` on the offending statement (any line of it)
or ``# simlint: ignore-file[RULE]`` for a whole module. Each rule is
documented in ``docs/LINT.md``.
"""

from repro.lint.core import Finding, lint_file, lint_paths, lint_source, register

# Importing the checker modules registers them with the framework.
from repro.lint import check_determinism  # noqa: F401  (registration)
from repro.lint import check_perf  # noqa: F401
from repro.lint import check_resource_safety  # noqa: F401
from repro.lint import check_yieldfrom  # noqa: F401

__all__ = ["Finding", "lint_file", "lint_paths", "lint_source", "register"]
