"""Nondeterminism detection (family ``nondet``, rules SL201–SL203).

Calibration and replay require *bit-identical* traces: the same seed must
produce the same event sequence on every run, or a regenerated figure is
silently a different experiment. Three sources of run-to-run variation
are banned from simulation code:

* SL201 — wall-clock reads (``time.time()``, ``datetime.now()``,
  ``time.perf_counter()``, ...). Simulated time lives on the simulator
  clock: use ``sim.now`` / ``comm.wtime()``.
* SL202 — the *global* (unseeded / ambiently-seeded) RNGs: the
  ``random`` module's top-level functions and NumPy's legacy
  ``np.random.*`` singleton. Stochastic choices draw from
  :func:`repro.simengine.rng.fork` ``(stream, seed)``, a stdlib
  ``random.Random`` per named stream under the experiment seed; only
  numerics that need numpy arrays of draws use
  :func:`~repro.simengine.rng.seeded_rng`.
* SL203 — iteration over a ``set`` (literal, comprehension or
  ``set(...)`` call) in a ``for`` header or comprehension. Set order
  depends on hash seeding; feeding it into scheduling or rank ordering
  varies the trace across interpreter runs. Sort first.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, register

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


@register
class DeterminismChecker:
    family = "nondet"
    rules = {
        "SL201": "wall-clock read in simulation code",
        "SL202": "unseeded global RNG (random.* / np.random.*)",
        "SL203": "iteration over a set (hash-order dependent)",
    }

    def check(self, tree: ast.Module, filename: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, filename)
            elif isinstance(node, ast.For):
                yield from self._check_iter(node.iter, filename)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iter(gen.iter, filename)

    # -- calls ---------------------------------------------------------------
    def _check_call(self, node: ast.Call, filename: str) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        # time.time() and friends
        if isinstance(owner, ast.Name) and owner.id == "time" and func.attr in _TIME_FNS:
            yield self._finding(
                "SL201", node, filename,
                f"'time.{func.attr}()' reads the host clock — simulated time "
                f"is 'sim.now' / 'comm.wtime()'",
            )
            return
        # datetime.now() / datetime.datetime.now() / date.today()
        if func.attr in _DATETIME_FNS:
            tail = owner.attr if isinstance(owner, ast.Attribute) else (
                owner.id if isinstance(owner, ast.Name) else ""
            )
            if tail in ("datetime", "date"):
                yield self._finding(
                    "SL201", node, filename,
                    f"'{tail}.{func.attr}()' reads the host clock — stamp "
                    f"results outside the simulation or use the sim clock",
                )
                return
        # random.<fn>()
        if isinstance(owner, ast.Name) and owner.id == "random" and func.attr in _RANDOM_FNS:
            yield self._finding(
                "SL202", node, filename,
                f"'random.{func.attr}()' draws from the shared global RNG — "
                f"use repro.simengine.rng.fork(stream, seed)",
            )
            return
        # np.random.<fn>() / numpy.random.<fn>()
        if (
            isinstance(owner, ast.Attribute)
            and owner.attr == "random"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in ("np", "numpy")
            and func.attr not in _NP_RANDOM_OK
        ):
            yield self._finding(
                "SL202", node, filename,
                f"'{owner.value.id}.random.{func.attr}()' uses NumPy's global "
                f"RandomState — use repro.simengine.rng.fork(stream, seed), or "
                f"seeded_rng(seed, stream=...) for numpy arrays of draws",
            )

    # -- set iteration -------------------------------------------------------
    def _check_iter(self, iter_node: ast.AST, filename: str) -> Iterator[Finding]:
        if _is_set_expr(iter_node):
            yield self._finding(
                "SL203", iter_node, filename,
                "iterating a set: order is hash-seed dependent and will vary "
                "between runs — iterate 'sorted(...)' instead",
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
