"""SL901: per-event closure allocation in process functions.

The engine's speed rests on scheduling bound methods, never closures: a
lambda handed to a deferring sink (``schedule``/``push``/``call_later``/
...) inside a process function (a generator) is
re-allocated on every resumption of that process and defeats the
engine's bound-method fast paths. Benchmarks catch such regressions
after the fact; SL901 catches them at lint time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (
    Finding,
    call_name,
    is_generator,
    iter_function_defs,
    own_nodes,
    register,
)


@register
class PerfChecker:
    """SL901: keep per-event closures out of process functions."""

    family = "perf"
    rules = {
        "SL901": "per-event closure/lambda allocated in a process "
        "function (hoist to a bound method)",
    }

    def check(self, tree: ast.Module, filename: str) -> Iterator[Finding]:
        for func in iter_function_defs(tree):
            if is_generator(func):
                yield from self._check_closures(func, filename)

    # -- SL901: closure allocation in process functions ----------------------

    #: Call targets that *defer* their callable argument: a lambda handed
    #: to one of these is retained and invoked later, per event. Lambdas
    #: passed elsewhere (sort keys, cost functions, combiners) are called
    #: inline and are not per-event allocations.
    CALLBACK_SINKS = frozenset(
        {"schedule", "push", "add_callback", "call_later", "call_at",
         "defer", "spawn"}
    )

    def _check_closures(
        self, func: ast.FunctionDef, filename: str
    ) -> Iterator[Finding]:
        for node in own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) not in self.CALLBACK_SINKS:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for arg in values:
                if isinstance(arg, ast.Lambda):
                    yield Finding(
                        rule="SL901",
                        family=self.family,
                        path=filename,
                        line=arg.lineno,
                        col=arg.col_offset,
                        message=f"lambda allocated per event inside process "
                        f"function '{func.name}' — every resumption "
                        f"re-allocates the closure; hoist to a bound "
                        f"method or module function",
                    )
