"""yield-from discipline (family ``yield-from``, rules SL101–SL104).

In the generator-based DES, every process-helper is itself a generator:
calling ``comm.send(...)`` merely *creates* the generator — nothing runs,
no simulated time passes — until the caller drives it with ``yield from``.
A discarded or mis-consumed helper call is therefore a *silent no-op*: the
program completes, the clock is simply wrong. These rules flag the four
mis-consumption shapes inside generator functions:

* SL101 — helper call used as a bare statement (result discarded);
* SL102 — generator-helper call assigned to a name (the name binds a
  generator object, not the operation's result);
* SL103 — ``yield helper()`` where ``helper`` is a generator-helper
  (yields the generator object as a command; must be ``yield from``);
* SL104 — ``yield from helper()`` where ``helper`` returns an *event*
  (events are not iterable; must be a plain ``yield``).

Helper tables mirror the process-helper APIs:
:class:`repro.mpi.comm.Comm` (its process-helpers, and ``_post_recv``,
the event a receive waits on when no arrived message matches),
a network port's ``request``, ``Delay`` and the network transfer
helper. Names that collide with common stdlib methods (``split``,
``reduce``, ``request``, ``transfer``) are only matched when the
receiver expression names a comm / resource / network object, so
``line.split(",")`` never trips the rule; the heuristic and its escape
hatch are documented in docs/LINT.md.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import Finding, is_generator, iter_function_defs, register

#: Comm methods that return a *generator* and must be driven with
#: ``yield from``, matched on any receiver.
GEN_METHODS = frozenset(
    {
        "send", "recv", "recv_with_status", "sendrecv", "compute", "stream",
        "barrier", "bcast", "allreduce", "gather", "allgather",
        "scatter", "reduce_scatter", "scan", "exscan", "alltoall",
        "alltoallv", "dup",
    }
)

_COMM_HINTS = ("comm", "world", "cart", "mpi")
_RESOURCE_HINTS = ("resource", "port", "link", "channel", "slot", "server",
                   "nic", "controller", "ost", "disk")
_NET_HINTS = ("network", "net", "fabric", "torus")

#: Ambiguous generator-helper method names: matched only when the receiver
#: text contains one of the hints.
GEN_METHODS_HINTED = {
    "split": _COMM_HINTS,
    "reduce": _COMM_HINTS,
    "transfer": _NET_HINTS,
}

#: Calls that return an *event*: consumed with a plain ``yield`` (possibly
#: after assignment), never with ``yield from``.
EVENT_METHODS_HINTED = {
    "_post_recv": (),  # unambiguous
    "request": _RESOURCE_HINTS,
}

#: Event-returning *function* (plain-name) calls.
EVENT_FUNCTIONS = frozenset({"Delay"})


def _receiver_text(call: ast.Call) -> Optional[str]:
    """Lower-cased source of a method call's receiver, None for plain names."""
    if isinstance(call.func, ast.Attribute):
        try:
            return ast.unparse(call.func.value).lower()
        except Exception:  # pragma: no cover - unparse is total on valid ASTs
            return ""
    return None


def _gen_helper_name(call: ast.Call) -> Optional[str]:
    """The helper name if ``call`` is a generator-helper invocation."""
    if not isinstance(call.func, ast.Attribute):
        return None
    name = call.func.attr
    if name in GEN_METHODS:
        return name
    hints = GEN_METHODS_HINTED.get(name)
    if hints is not None:
        recv = _receiver_text(call) or ""
        if any(h in recv for h in hints):
            return name
    return None


def _event_helper_name(call: ast.Call) -> Optional[str]:
    """The helper name if ``call`` is an event-helper invocation."""
    if isinstance(call.func, ast.Name):
        return call.func.id if call.func.id in EVENT_FUNCTIONS else None
    if isinstance(call.func, ast.Attribute):
        name = call.func.attr
        hints = EVENT_METHODS_HINTED.get(name)
        if hints is None:
            return None
        if not hints:
            return name
        recv = _receiver_text(call) or ""
        if any(h in recv for h in hints):
            return name
    return None


@register
class YieldFromChecker:
    family = "yield-from"
    rules = {
        "SL101": "process-helper call discarded (missing 'yield from')",
        "SL102": "generator-helper call assigned without 'yield from'",
        "SL103": "'yield' of a generator-helper (use 'yield from')",
        "SL104": "'yield from' of an event-helper (use plain 'yield')",
    }

    def check(self, tree: ast.Module, filename: str) -> Iterator[Finding]:
        for func in iter_function_defs(tree):
            if not is_generator(func):
                continue
            yield from self._check_generator(func, filename)

    # -- per-generator walk -------------------------------------------------
    def _check_generator(self, func: ast.FunctionDef, filename: str) -> Iterator[Finding]:
        stack: list = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield from self._check_node(node, filename)
            stack.extend(ast.iter_child_nodes(node))

    def _check_node(self, node: ast.AST, filename: str) -> Iterator[Finding]:
        if isinstance(node, ast.Expr):
            yield from self._check_bare_expr(node, filename)
        elif isinstance(node, ast.Assign):
            yield from self._check_assign(node.value, filename)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield from self._check_assign(node.value, filename)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            # Covers yields in any expression position (assign RHS, call
            # argument, operand of a comparison, ...).
            yield from self._check_yield(node, filename)

    def _check_bare_expr(self, node: ast.Expr, filename: str) -> Iterator[Finding]:
        value = node.value
        if not isinstance(value, ast.Call):
            return  # bare yields are checked via _check_yield
        name = _gen_helper_name(value)
        if name is not None:
            yield self._finding(
                "SL101", value, filename,
                f"result of process-helper '{name}(...)' is discarded — the "
                f"operation never runs; use 'yield from ...{name}(...)'",
            )
            return
        if isinstance(value.func, ast.Name) and value.func.id in EVENT_FUNCTIONS:
            yield self._finding(
                "SL101", value, filename,
                f"event '{value.func.id}(...)' is discarded — nothing waits "
                f"on it; use 'yield {value.func.id}(...)'",
            )

    def _check_assign(self, value: ast.AST, filename: str) -> Iterator[Finding]:
        if not isinstance(value, ast.Call):
            return
        name = _gen_helper_name(value)
        if name is not None:
            yield self._finding(
                "SL102", value, filename,
                f"'{name}(...)' assigned without 'yield from' — the target "
                f"binds a generator object, not the operation's result; use "
                f"'x = yield from ...{name}(...)'",
            )

    def _check_yield(self, node: ast.AST, filename: str) -> Iterator[Finding]:
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            name = _gen_helper_name(node.value)
            if name is not None:
                yield self._finding(
                    "SL103", node, filename,
                    f"'yield {name}(...)' hands the simulator a generator "
                    f"object, not a command; use 'yield from {name}(...)'",
                )
        elif isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
            name = _event_helper_name(node.value)
            if name is not None:
                yield self._finding(
                    "SL104", node, filename,
                    f"'yield from {name}(...)' iterates an event (TypeError "
                    f"at run time); events take a plain 'yield {name}(...)'",
                )

    def _finding(self, rule: str, node: ast.AST, filename: str, msg: str) -> Finding:
        return Finding(
            rule=rule,
            family=self.family,
            path=filename,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=msg,
        )
