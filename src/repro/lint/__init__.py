"""simlint — simulation-correctness static analysis for this repository.

The generator-based discrete-event MPI makes certain bugs *silent*: a
``comm.send(...)`` without ``yield from`` never runs, never advances the
simulated clock, and produces a plausible-looking wrong number in a paper
figure. ``repro.lint`` is an AST-based checker suite that machine-checks
the conventions the simulator's correctness rests on:

* ``yield-from`` — process-helper results must be consumed
  (:mod:`repro.lint.check_yieldfrom`);
* ``nondet`` — no wall-clock time, no unseeded global RNG, no
  set-iteration ordering (:mod:`repro.lint.check_determinism`);
* ``units`` — the ``_bytes`` / ``_gib`` / ``_gbps`` / ``_us`` / ``_s`` /
  ``_flops`` suffix convention is dimensionally consistent
  (:mod:`repro.lint.check_units`);
* ``collective`` — collectives are not guarded by rank-dependent
  conditionals (:mod:`repro.lint.check_collectives`);
* ``resource-safety`` — resource grants are released in a ``finally`` so
  an interrupted process cannot leak slots
  (:mod:`repro.lint.check_resource_safety`).

Those five families stop at function boundaries. The *whole-program*
pass (:mod:`repro.lint.program`, built on the symbol table and call
graph in :mod:`repro.lint.callgraph`) adds three interprocedural
families that see through project-defined helpers:

* ``helper-flow`` (SL601–SL603) — ``yield from`` discipline for
  transitively-process helper functions;
* ``collective-flow`` (SL701–SL702) — collective matching across helper
  calls under rank-dependent control flow;
* ``units`` (SL304–SL305) — unit dataflow into resolved callee
  parameters and out of inferred return units;
* ``schedule-race`` (SL801–SL804, :mod:`repro.simrace.rules`) — static
  order-dependence patterns: unkeyed same-timestamp scheduling,
  unordered-container iteration feeding the schedule, unsynchronized
  shared writes across process methods, RNG stream aliasing. The
  dynamic counterpart is ``repro race`` (:mod:`repro.simrace`), whose
  divergence findings surface as rule SL850;
* ``perf`` (SL901, :mod:`repro.lint.check_perf`) — no per-event
  closures handed to the scheduler from process functions.

Run it as ``python -m repro.lint [paths]``, ``repro-lint`` or
``repro lint``; suppress a deliberate violation with
``# simlint: ignore[RULE]`` on the offending statement (any line of it)
or ``# simlint: ignore-file[RULE]`` for a whole module. Mechanical
violations are repairable with ``--fix`` / ``--fix --write``
(:mod:`repro.lint.fixes`); adopt new rules over legacy debt with
``--baseline`` (:mod:`repro.lint.baseline`). Results are cached under
``.repro-cache/lint/`` (:mod:`repro.lint.cache`). Each rule is
documented in ``docs/LINT.md``.
"""

from repro.lint.core import (
    Checker,
    Edit,
    Finding,
    Fix,
    all_checkers,
    all_rules,
    expand_paths,
    lint_file,
    lint_paths,
    lint_source,
    register,
    register_program,
)

# Importing the checker modules registers them with the framework.
from repro.lint import check_collectives  # noqa: F401  (registration)
from repro.lint import check_determinism  # noqa: F401
from repro.lint import check_resource_safety  # noqa: F401
from repro.lint import check_units  # noqa: F401
from repro.lint import check_yieldfrom  # noqa: F401
from repro.lint import program  # noqa: F401  (interprocedural checkers)
from repro.lint import check_perf  # noqa: F401  (SL901)
from repro.simrace import rules as _simrace_rules  # noqa: F401  (SL8xx)

from repro.lint.cache import LintCache
from repro.lint.fixes import apply_fixes, fix_files
from repro.lint.program import Program

__all__ = [
    "Checker",
    "Edit",
    "Finding",
    "Fix",
    "LintCache",
    "Program",
    "all_checkers",
    "all_rules",
    "apply_fixes",
    "expand_paths",
    "fix_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "register_program",
]
