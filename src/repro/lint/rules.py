"""simlint's rules: ``nondet`` over the whole module; ``yield-from``,
``resource-safety`` and ``perf`` over each process function (generator
function).

Each rule yields ``(rule, node, message)``; :func:`repro.lint.lint_source`
runs them in one pass per file and turns the hits into findings.

yield-from (SL101). In the generator-based DES every process-helper is
itself a generator: calling ``comm.send(...)`` merely *creates* the
generator — nothing runs, no simulated time passes — until the caller
drives it with ``yield from``. SL101 flags a helper call (or a ``Delay``)
used as a bare statement: a *silent no-op*, the program completes and the
clock is simply wrong. The other mis-consumptions are not rules
(docs/LINT.md, "Audit"): the kernel raises ``TypeError`` for ``yield
comm.barrier()`` and ``yield from port.request()``, and turning any
``x = yield from comm.recv(...)``-style assignment in ``src/`` into
``x = comm.recv(...)`` fails tier-1.

nondet (SL201–SL203). Calibration and replay require *bit-identical*
traces: the same seed must produce the same event sequence on every run.

* SL201 — wall-clock reads (``time.time()``, ``datetime.now()``, ...);
  simulated time is ``sim.now`` / ``comm.wtime()``.
* SL202 — the global RNGs: the ``random`` module's top-level functions
  and NumPy's legacy ``np.random.*`` singleton. Stochastic choices draw
  from :func:`repro.simengine.rng.fork` ``(stream, seed)``; only numerics
  that need numpy arrays of draws use
  :func:`~repro.simengine.rng.seeded_rng`.
* SL203 — iteration over a ``set`` (literal, comprehension or
  ``set(...)`` call) in a ``for`` header or comprehension: set order
  depends on hash seeding. Sort first.

resource-safety (SL501). An ``Interrupt`` can land while a process holds
a network port; a grant from a directly yielded ``.request()`` must be
released in a ``finally``, or the slot leaks forever. The two-step form
(``grant = res.request()`` … ``yield grant``) is out of scope: its
interrupt-safe pattern, ``finally: if grant.triggered: res.release()``,
is one the rule cannot see through.

perf (SL901). The engine's speed rests on scheduling bound methods, never
closures: a lambda handed to a deferring sink inside a process function is
re-allocated on every resumption of that process.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

#: One rule hit: (rule id, offending node, message).
Hit = Tuple[str, ast.AST, str]

# -- shared AST helpers -------------------------------------------------------


def call_name(node: ast.AST) -> str:
    """The trailing identifier of a call target: ``a.b.c(...)`` → ``"c"``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def iter_function_defs(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Every (sync) function definition in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node


def own_nodes(func: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``func``'s body without descending into nested function defs."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope: analysed on its own
        stack.extend(ast.iter_child_nodes(node))


def is_generator(func: ast.FunctionDef) -> bool:
    """True if ``func`` is a generator function (has its own yield)."""
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own_nodes(func))


# -- yield-from (SL101) -------------------------------------------------------

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
_NET_HINTS = ("network", "net", "fabric", "torus")

#: Ambiguous generator-helper method names: matched only when the receiver
#: text contains one of the hints, so ``line.split(",")`` stays silent.
GEN_METHODS_HINTED = {
    "split": _COMM_HINTS,
    "reduce": _COMM_HINTS,
    "transfer": _NET_HINTS,
}

#: Event constructors: a bare ``Delay(...)`` statement waits on nothing.
EVENT_FUNCTIONS = frozenset({"Delay"})


def _gen_helper_name(call: ast.Call) -> Optional[str]:
    """The helper name if ``call`` is a generator-helper invocation."""
    if not isinstance(call.func, ast.Attribute):
        return None
    name = call.func.attr
    if name in GEN_METHODS:
        return name
    hints = GEN_METHODS_HINTED.get(name)
    if hints is not None:
        recv = ast.unparse(call.func.value).lower()
        if any(h in recv for h in hints):
            return name
    return None


def _discarded(value: ast.AST) -> Iterator[Hit]:
    """SL101: a helper call or an event used as a bare statement."""
    if not isinstance(value, ast.Call):
        return
    name = _gen_helper_name(value)
    if name is not None:
        yield ("SL101", value,
               f"result of process-helper '{name}(...)' is discarded — the "
               f"operation never runs; use 'yield from ...{name}(...)'")
    elif isinstance(value.func, ast.Name) and value.func.id in EVENT_FUNCTIONS:
        yield ("SL101", value,
               f"event '{value.func.id}(...)' is discarded — nothing waits "
               f"on it; use 'yield {value.func.id}(...)'")


# -- perf (SL901) -------------------------------------------------------------

#: The deferring methods of ``Simulator`` and ``EventQueue``: a lambda
#: handed to one of these is retained and invoked later, per event.
#: Lambdas passed elsewhere (sort keys, cost functions, combiners) are
#: called inline and are not per-event allocations.
CALLBACK_SINKS = frozenset({"schedule", "schedule_at", "push", "spawn"})


def _deferred_lambdas(call: ast.Call, func_name: str) -> Iterator[Hit]:
    for arg in [*call.args, *(kw.value for kw in call.keywords)]:
        if isinstance(arg, ast.Lambda):
            yield ("SL901", arg,
                   f"lambda allocated per event inside process function "
                   f"'{func_name}' — every resumption re-allocates the "
                   f"closure; hoist to a bound method or module function")


# -- resource-safety (SL501) --------------------------------------------------


def _releases_in_finally(node: Optional[ast.AST]) -> bool:
    """True if ``node`` is a ``try`` whose ``finally`` calls ``.release(...)``."""
    return isinstance(node, ast.Try) and any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "release"
        for stmt in node.finalbody
        for n in ast.walk(stmt)
    )


def _guarded_nodes(func: ast.FunctionDef) -> Iterator[Tuple[ast.AST, bool]]:
    """``func``'s own nodes, each with whether a slot granted there is
    released on every exit: the node sits in the body, a handler or the
    ``else`` of a ``try`` whose ``finally`` releases, or its innermost
    statement is directly followed by such a ``try``. A node in the
    ``finally`` itself is not guarded by that ``try``."""
    stack: List[Tuple[ast.AST, bool, bool]] = []

    def push(children: list, in_try: bool, before_try: bool) -> None:
        for i, child in enumerate(children):
            if isinstance(child, ast.stmt):
                after = children[i + 1] if i + 1 < len(children) else None
                stack.append((child, in_try, _releases_in_finally(after)))
            elif isinstance(child, ast.AST):
                stack.append((child, in_try, before_try))

    push(func.body, False, False)
    while stack:
        node, in_try, before_try = stack.pop()
        yield node, in_try or before_try
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope: analysed on its own
        releasing = _releases_in_finally(node)
        for field, value in ast.iter_fields(node):
            guard = in_try or (releasing and field != "finalbody")
            push(value if isinstance(value, list) else [value], guard, before_try)


def _unreleased_request(node: ast.Yield) -> Iterator[Hit]:
    call = node.value
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "request"
    ):
        recv = ast.unparse(call.func.value)
        yield ("SL501", node,
               f"'yield {recv}.request()' is not inside a try whose "
               f"'finally' releases — an Interrupt landing while the "
               f"slot is held leaks it forever; wrap the hold in "
               f"'try: ... finally: {recv}.release()'")


# -- one walk per process function --------------------------------------------


def check_process_function(func: ast.FunctionDef) -> Iterator[Hit]:
    """SL101, SL501 and SL901 in one walk over a generator's own nodes."""
    for node, guarded in _guarded_nodes(func):
        if isinstance(node, ast.Expr):
            yield from _discarded(node.value)
        elif isinstance(node, ast.Yield):
            if not guarded:
                yield from _unreleased_request(node)
        elif isinstance(node, ast.Call) and call_name(node) in CALLBACK_SINKS:
            yield from _deferred_lambdas(node, func.name)


# -- nondet (SL201–SL203) -----------------------------------------------------

#: attribute names on the ``time`` module that read the host clock.
_TIME_FNS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns", "process_time", "process_time_ns", "clock"}
)

#: wall-clock constructors on ``datetime`` / ``datetime.date``.
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: ``random`` top-level functions drawing from the shared global state.
_RANDOM_FNS = frozenset(
    {"random", "randint", "randrange", "uniform", "gauss", "normalvariate",
     "choice", "choices", "sample", "shuffle", "seed", "getrandbits",
     "betavariate", "expovariate", "triangular", "vonmisesvariate",
     "paretovariate", "weibullvariate", "lognormvariate"}
)

#: legacy ``numpy.random`` module-level functions (the hidden global
#: ``RandomState``). Constructing explicit generators is fine.
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
     "Philox", "SFC64", "MT19937", "BitGenerator", "RandomState"}
)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _nondet_call(node: ast.Call) -> Iterator[Hit]:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return
    owner = func.value
    # time.time() and friends
    if isinstance(owner, ast.Name) and owner.id == "time" and func.attr in _TIME_FNS:
        yield ("SL201", node,
               f"'time.{func.attr}()' reads the host clock — simulated time "
               f"is 'sim.now' / 'comm.wtime()'")
        return
    # datetime.now() / datetime.datetime.now() / date.today()
    if func.attr in _DATETIME_FNS:
        tail = owner.attr if isinstance(owner, ast.Attribute) else (
            owner.id if isinstance(owner, ast.Name) else ""
        )
        if tail in ("datetime", "date"):
            yield ("SL201", node,
                   f"'{tail}.{func.attr}()' reads the host clock — stamp "
                   f"results outside the simulation or use the sim clock")
            return
    # random.<fn>()
    if isinstance(owner, ast.Name) and owner.id == "random" and func.attr in _RANDOM_FNS:
        yield ("SL202", node,
               f"'random.{func.attr}()' draws from the shared global RNG — "
               f"use repro.simengine.rng.fork(stream, seed)")
        return
    # np.random.<fn>() / numpy.random.<fn>()
    if (
        isinstance(owner, ast.Attribute)
        and owner.attr == "random"
        and isinstance(owner.value, ast.Name)
        and owner.value.id in ("np", "numpy")
        and func.attr not in _NP_RANDOM_OK
    ):
        yield ("SL202", node,
               f"'{owner.value.id}.random.{func.attr}()' uses NumPy's global "
               f"RandomState — use repro.simengine.rng.fork(stream, seed), or "
               f"seeded_rng(seed, stream=...) for numpy arrays of draws")


def _set_iteration(iter_node: ast.AST) -> Iterator[Hit]:
    if _is_set_expr(iter_node):
        yield ("SL203", iter_node,
               "iterating a set: order is hash-seed dependent and will vary "
               "between runs — iterate 'sorted(...)' instead")


def check_nondet(tree: ast.Module) -> Iterator[Hit]:
    """SL201–SL203 in one walk over the whole module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield from _nondet_call(node)
        elif isinstance(node, ast.For):
            yield from _set_iteration(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield from _set_iteration(gen.iter)
