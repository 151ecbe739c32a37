"""Resource acquisition safety (family ``resource-safety``, rule SL501).

Any process can be diverted by an :class:`~repro.simengine.Interrupt`
*between* being granted a network port and releasing it. A bare

::

    yield res.request()
    ...
    res.release()

then leaks the slot forever: the interrupt unwinds the generator, the
``release()`` never runs, and every later requester queues behind a hold
that cannot end (a sanitizing MPI job reports the held port only once
every process has finished — if the run ever gets there). The grant
must be released in a ``finally``::

    yield res.request()
    try:
        ...
    finally:
        res.release()

SL501 flags any directly-yielded ``.request()`` call in a generator that
is neither inside the body of a ``try`` whose ``finally`` performs a
``.release(...)`` call nor directly followed by such a ``try`` (the form
above). The rule matches *any* receiver
(unlike the hinted SL1xx rules) because a missed cleanup is far costlier
than an occasional false positive; a deliberate exception takes
``# simlint: ignore[SL501]``. The two-step form
(``grant = res.request()`` … ``yield grant``) is out of scope — the
interrupt-safe pattern for it, ``finally: if grant.triggered:
release()``, is one the rule cannot see through.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.lint.core import Finding, is_generator, iter_function_defs, register


def _releases_in_finally(try_node: ast.Try) -> bool:
    """True if the try's ``finally`` body contains a ``.release(...)`` call."""
    for stmt in try_node.finalbody:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "release"
            ):
                return True
    return False


@register
class ResourceSafetyChecker:
    family = "resource-safety"
    rules = {
        "SL501": "'yield ...request()' without an enclosing try/finally "
        "that releases (slot leaks if the process is interrupted)",
    }

    def check(self, tree: ast.Module, filename: str) -> Iterator[Finding]:
        for func in iter_function_defs(tree):
            if not is_generator(func):
                continue
            yield from self._check_generator(func, filename)

    def _check_generator(
        self, func: ast.FunctionDef, filename: str
    ) -> Iterator[Finding]:
        # Parent chains within this function only (nested defs get their
        # own pass via iter_function_defs).
        parents: Dict[ast.AST, ast.AST] = {}
        stack: List[ast.AST] = list(func.body)
        for stmt in func.body:
            parents[stmt] = func
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for child in ast.iter_child_nodes(node):
                parents[child] = node
                stack.append(child)
            if not (
                isinstance(node, ast.Yield)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "request"
            ):
                continue
            if self._guarded(node, func, parents):
                continue
            recv = ast.unparse(node.value.func.value)
            yield Finding(
                rule="SL501",
                family=self.family,
                path=filename,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"'yield {recv}.request()' is not inside a try whose "
                    f"'finally' releases — an Interrupt landing while the "
                    f"slot is held leaks it forever; wrap the hold in "
                    f"'try: ... finally: {recv}.release()'"
                ),
            )

    @staticmethod
    def _guarded(
        node: ast.AST, func: ast.FunctionDef, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        """True if an ancestor try (via its *body*) releases in finally, or
        the request's statement is directly followed by such a try."""
        stmt = _statement_of(node, parents)
        block = _block_containing(parents.get(stmt, func), stmt) if stmt else None
        if block is not None:
            following = block[block.index(stmt) + 1:]
            if following and isinstance(following[0], ast.Try) \
                    and _releases_in_finally(following[0]):
                return True
        child = node
        cur = parents.get(node)
        while cur is not None and cur is not func:
            if isinstance(cur, ast.Try) and _releases_in_finally(cur):
                # The protection only holds if we reached the try through
                # its body or handlers — a yield *inside the finalbody*
                # runs after/without the release path.
                if child in cur.body or any(
                    child is h for h in cur.handlers
                ) or child in cur.orelse:
                    return True
            child = cur
            cur = parents.get(cur)
        return False


def _statement_of(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Optional[ast.stmt]:
    """The innermost statement holding ``node``."""
    while node is not None and not isinstance(node, ast.stmt):
        node = parents.get(node)
    return node


def _block_containing(owner: ast.AST, stmt: ast.AST) -> Optional[List[ast.stmt]]:
    for fieldname in ("body", "orelse", "finalbody"):
        block = getattr(owner, fieldname, None)
        if isinstance(block, list) and stmt in block:
            return block
    for handler in getattr(owner, "handlers", []) or []:
        if stmt in handler.body:
            return handler.body
    return None
