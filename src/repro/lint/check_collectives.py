"""Collective-matching under rank conditionals (family ``collective``).

An MPI collective only completes when *every* rank of the communicator
calls it. In the DES layer the rendezvous context waits for ``size``
arrivals, so a collective reached by a rank-dependent subset —

::

    if comm.rank == 0:
        yield from comm.allreduce(x)     # ranks 1..p-1 never arrive

— deadlocks the simulated job (and on a real machine, the real one).
Two shapes are flagged inside generator functions:

* SL401 — a collective inside a rank-dependent conditional whose two
  branches do not invoke the *same sequence* of collective kinds (the
  symmetric ``if rank==0: gather(...) else: gather(...)`` idiom stays
  legal);
* SL402 — a collective lexically after a rank-dependent early
  ``return`` (only the ranks that did not return can reach it).

Rank-dependence is syntactic: the conditional's test mentions a bare
``rank`` / ``myrank`` name or a ``.rank`` attribute. Collectives issued
on a sub-communicator whose membership genuinely is rank-dependent (a
``comm.split`` product) are legal MPI; suppress those sites with
``# simlint: ignore[SL401]`` and a comment naming the subcomm.

Both rules stop at function boundaries: a collective issued inside a
helper that is called under a rank-dependent branch is invisible to
them. Such a mismatch deadlocks at run time, where the runtime
sanitizer and the tier-1 DES tests catch it (``docs/LINT.md``, "Audit").
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.core import Finding, is_generator, iter_function_defs, register

#: Collective method names matched on any receiver.
COLLECTIVES = frozenset(
    {"barrier", "bcast", "allreduce", "allgather", "reduce_scatter",
     "scan", "exscan", "alltoall", "alltoallv"}
)

#: Collective names that collide with stdlib/numpy methods: matched only
#: when the receiver mentions a communicator.
COLLECTIVES_HINTED = frozenset({"gather", "scatter", "reduce", "split", "dup"})
_COMM_HINTS = ("comm", "world", "cart", "mpi")

_RANK_NAMES = frozenset({"rank", "myrank", "my_rank"})


def _collective_name(call: ast.Call) -> Optional[str]:
    if not isinstance(call.func, ast.Attribute):
        return None
    name = call.func.attr
    if name in COLLECTIVES:
        return name
    if name in COLLECTIVES_HINTED:
        try:
            recv = ast.unparse(call.func.value).lower()
        except Exception:  # pragma: no cover
            recv = ""
        if any(h in recv for h in _COMM_HINTS):
            return name
    return None


def _mentions_rank(test: ast.AST) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id in _RANK_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
    return False


def _subtree_nodes(stmts: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statement subtrees without entering nested function scopes."""
    stack: List[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _collectives_in(stmts: List[ast.stmt]) -> List[Tuple[str, ast.Call]]:
    out = []
    for node in _subtree_nodes(stmts):
        if isinstance(node, ast.Call):
            name = _collective_name(node)
            if name:
                out.append((name, node))
    out.sort(key=lambda item: (item[1].lineno, item[1].col_offset))
    return out


def _returns(stmts: List[ast.stmt]) -> bool:
    return any(isinstance(n, ast.Return) for n in _subtree_nodes(stmts))


@register
class CollectiveChecker:
    family = "collective"
    rules = {
        "SL401": "collective guarded by a rank-dependent conditional",
        "SL402": "collective after a rank-dependent early return",
    }

    def check(self, tree: ast.Module, filename: str) -> Iterator[Finding]:
        for func in iter_function_defs(tree):
            if not is_generator(func):
                continue
            findings: List[Finding] = []
            self._scan_body(func.body, filename, findings)
            yield from findings

    # -- recursive body scan -------------------------------------------------
    def _scan_body(
        self, stmts: List[ast.stmt], filename: str, findings: List[Finding]
    ) -> Optional[int]:
        """Scan one statement list; returns the line of a rank-dependent
        partition point (early return) if one occurs, else None."""
        partition_line: Optional[int] = None
        for stmt in stmts:
            if partition_line is not None:
                for name, call in _collectives_in([stmt]):
                    findings.append(self._finding(
                        "SL402", call, filename,
                        f"collective '{name}' is unreachable for ranks that "
                        f"took the rank-dependent return above (conditional "
                        f"at line {partition_line}) — the job deadlocks",
                    ))
                continue
            if isinstance(stmt, ast.If) and _mentions_rank(stmt.test):
                partition_line = self._check_rank_if(stmt, filename, findings)
            else:
                partition_line = self._scan_children(stmt, filename, findings)
        return partition_line

    def _scan_children(
        self, stmt: ast.stmt, filename: str, findings: List[Finding]
    ) -> Optional[int]:
        """Recurse into the body lists of compound statements."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        partition: Optional[int] = None
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field, None)
            if inner:
                p = self._scan_body(inner, filename, findings)
                partition = partition or p
        for handler in getattr(stmt, "handlers", []) or []:
            p = self._scan_body(handler.body, filename, findings)
            partition = partition or p
        return partition

    def _check_rank_if(
        self, stmt: ast.If, filename: str, findings: List[Finding]
    ) -> Optional[int]:
        body_colls = _collectives_in(stmt.body)
        orelse_colls = _collectives_in(stmt.orelse)
        if [n for n, _ in body_colls] != [n for n, _ in orelse_colls]:
            for name, call in body_colls + orelse_colls:
                findings.append(self._finding(
                    "SL401", call, filename,
                    f"collective '{name}' is reached by a rank-dependent "
                    f"subset (conditional at line {stmt.lineno}) and the "
                    f"branches' collective sequences differ — every rank "
                    f"must make the same collective calls",
                ))
        body_returns = _returns(stmt.body)
        orelse_returns = _returns(stmt.orelse)
        if body_returns != orelse_returns:
            return stmt.lineno
        return None

    def _finding(self, rule: str, node: ast.AST, filename: str, msg: str) -> Finding:
        return Finding(
            rule=rule,
            family=self.family,
            path=filename,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=msg,
        )
