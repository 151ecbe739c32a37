"""Perf trajectory: run the simulator benchmark set, compare to baseline.

ROADMAP item 1 gates the simengine hot-path rewrite on "no regression
against a recorded baseline". This script is that baseline's keeper:

* ``python benchmarks/compare.py --update`` — run the benchmark set
  (DES core microbenchmarks plus the heavy figure drivers: fig17/18/19
  POP, fig22 S3D and the network-bound fig12_13) and rewrite
  ``BENCH_simulator.json``;
* ``python benchmarks/compare.py`` — re-run and compare against the
  checked-in baseline. A benchmark more than ``--tolerance`` (default
  20%) *slower* than baseline is a regression and fails the run; one
  more than the tolerance *faster* prints a note to refresh the
  baseline but does not fail (optimisation PRs should land, then
  ratchet with ``--update``).

Wall-clock numbers are machine-dependent, so CI gates with
``--fail-over 1.0``: verdict lines still report at ``--tolerance``, but
the job fails only on a benchmark more than 2x its baseline. The
checked-in baseline's value is the *trajectory* — each rewrite PR
updates it in the same commit that changes the hot path, and review
sees the delta. Per-layer host time lives in ``benchmarks/e2e``.

Exit status: 0 within tolerance (or after --update), 1 on regression,
2 on usage errors (missing/corrupt baseline).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_simulator.json"
SCHEMA = 2


def _bench_event_loop_100k() -> float:
    from repro.simengine import Delay, Simulator

    sim = Simulator()

    def ticker():
        for _ in range(100_000):
            yield Delay(1.0)

    sim.spawn(ticker())
    assert sim.run() == 100_000.0
    return 0.0


def _bench_des_pingpong_1000() -> float:
    from repro.machine import xt4
    from repro.mpi import MPIJob

    def main(comm):
        peer = 1 - comm.rank
        for i in range(1000):
            if comm.rank == 0:
                yield from comm.send(b"", dest=peer, nbytes=8, tag=i)
                yield from comm.recv(source=peer, tag=i)
            else:
                yield from comm.recv(source=peer, tag=i)
                yield from comm.send(b"", dest=peer, nbytes=8, tag=i)
        return comm.wtime()

    assert MPIJob(xt4("SN"), 2).run(main).elapsed_s > 0
    return 0.0


def _bench_des_allreduce_64() -> float:
    from repro.machine import xt4
    from repro.mpi import MPIJob

    def main(comm):
        total = 0.0
        for _ in range(20):
            total = yield from comm.allreduce(comm.rank, op="sum")
        return total

    assert MPIJob(xt4("VN"), 64).run(main).returns[0] == sum(range(64))
    return 0.0


def _bench_des_alltoall_32() -> float:
    from repro.machine import xt4
    from repro.mpi import MPIJob

    def main(comm):
        out = yield from comm.alltoall([comm.rank] * comm.size)
        return sum(out)

    assert MPIJob(xt4("VN"), 32).run(main).returns[0] == sum(range(32))
    return 0.0


def _bench_des_fig22_companion() -> float:
    # fig22's figure driver is purely analytic; its DES work lives in the
    # module's ``des_companion`` (one distributed MiniDNS RK step), so
    # that is what the engine benchmark must time.
    import importlib

    module = importlib.import_module("repro.experiments.fig22_s3d")
    assert module.des_companion()
    return 0.0


def _driver(exp_id: str) -> Callable[[], float]:
    def run() -> float:
        import importlib

        from repro.core import get_experiment

        driver = get_experiment(exp_id)
        # Defeat module-level @lru_cache memoization, exactly as the
        # simrace certifier does: a memo hit on repeat 2+ would make the
        # recorded best_s measure a dictionary lookup instead of the driver.
        from repro.simrace.certify import _clear_module_memoization

        _clear_module_memoization(importlib.import_module(driver.__module__))
        driver()
        return 0.0

    return run


#: name → workload. Mirrors benchmarks/bench_simulator.py (the pytest
#: harness) plus the heavy paper figures; keep the two in sync.
BENCHMARKS: Dict[str, Callable[[], float]] = {
    "event_loop_100k": _bench_event_loop_100k,
    "des_pingpong_1000": _bench_des_pingpong_1000,
    "des_allreduce_64": _bench_des_allreduce_64,
    "des_alltoall_32": _bench_des_alltoall_32,
    "des_fig22_companion": _bench_des_fig22_companion,
    "driver_fig17_pop": _driver("fig17"),
    "driver_fig18_pop": _driver("fig18"),
    "driver_fig19_pop": _driver("fig19"),
    "driver_fig22_s3d": _driver("fig22"),
    "driver_fig12_13_net": _driver("fig12_13"),
}

#: One benchmark record: {"best_s": float}.
Record = Dict[str, float]


def measure(repeats: int = 3) -> Dict[str, Record]:
    """Best-of-``repeats`` wall seconds per benchmark (warmed imports)."""
    results: Dict[str, Record] = {}
    for name, workload in BENCHMARKS.items():
        best: Optional[float] = None
        for _ in range(repeats):
            t0 = time.perf_counter()  # simlint: ignore[SL201] — benchmark harness measures wall time
            workload()
            wall = time.perf_counter() - t0  # simlint: ignore[SL201] — benchmark harness
            best = wall if best is None else min(best, wall)
        results[name] = {"best_s": best or 0.0}
        print(f"  {name:24s} {results[name]['best_s']*1e3:9.2f} ms",
              file=sys.stderr)
    return results


def load_baseline(path: pathlib.Path) -> Dict[str, Record]:
    """Load a baseline; older schema-1 files load the same way."""
    data = json.loads(path.read_text())
    schema = data.get("schema")
    if schema not in (1, SCHEMA):
        raise ValueError(f"unsupported baseline schema {schema!r}")
    return {
        k: {"best_s": float(v["best_s"])}
        for k, v in data["benchmarks"].items()
    }


def write_baseline(
    path: pathlib.Path, results: Dict[str, Record], repeats: int
) -> None:
    doc = {
        "schema": SCHEMA,
        "units": "seconds (best of repeats, wall clock)",
        "repeats": repeats,
        "note": (
            "perf trajectory for the simengine hot-path rewrite "
            "(ROADMAP item 1); refresh with "
            "`python benchmarks/compare.py --update` in the same commit "
            "that changes the hot path"
        ),
        "benchmarks": {
            name: {"best_s": round(rec["best_s"], 6)}
            for name, rec in results.items()
        },
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def compare(
    baseline: Dict[str, Record],
    current: Dict[str, Record],
    tolerance: float,
) -> List[str]:
    """Human-readable verdict lines; a line starting with REGRESSION
    means failure."""
    lines: List[str] = []
    for name in sorted(BENCHMARKS):
        if name not in baseline:
            lines.append(f"NEW        {name}: no baseline entry (run --update)")
            continue
        base = baseline[name]["best_s"]
        cur = current[name]["best_s"]
        if base <= 0:
            lines.append(f"SKIP       {name}: degenerate baseline {base}")
            continue
        ratio = cur / base
        verdict = "ok"
        if ratio > 1 + tolerance:
            verdict = "REGRESSION"
        elif ratio < 1 - tolerance:
            verdict = "faster (baseline stale; consider --update)"
        lines.append(
            f"{'REGRESSION' if verdict == 'REGRESSION' else 'ok':10s} "
            f"{name:24s} {base*1e3:9.2f} ms -> {cur*1e3:9.2f} ms "
            f"({ratio:.0%} of baseline)"
            + ("" if verdict in ("ok", "REGRESSION") else f"  [{verdict}]")
        )
    for name in sorted(set(baseline) - set(BENCHMARKS)):
        lines.append(f"STALE      {name}: baseline entry has no benchmark")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/compare.py",
        description="simulator perf trajectory: measure and compare",
    )
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE), metavar="FILE",
        help=f"baseline file (default {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from this run and exit 0",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20, metavar="FRAC",
        help="allowed slowdown fraction before failing (default 0.20)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="repetitions per benchmark; best is kept (default 3)",
    )
    parser.add_argument(
        "--fail-over", type=float, default=None, metavar="FRAC",
        help="gate the exit code at this (larger) slowdown fraction "
        "instead of --tolerance: verdict lines still report at the "
        "normal tolerance, but only regressions beyond FRAC fail. "
        "CI uses this to gate on real regressions while tolerating "
        "runner-to-runner wall-clock noise",
    )
    args = parser.parse_args(argv)
    path = pathlib.Path(args.baseline)

    print(f"measuring {len(BENCHMARKS)} benchmarks "
          f"(best of {args.repeats})...", file=sys.stderr)
    current = measure(args.repeats)

    if args.update:
        write_baseline(path, current, args.repeats)
        print(f"wrote {path}")
        return 0

    try:
        baseline = load_baseline(path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: cannot load baseline {path}: {exc}", file=sys.stderr)
        return 2

    lines = compare(baseline, current, args.tolerance)
    print("\n".join(lines))
    gate_tol = args.tolerance
    if args.fail_over is not None:
        gate_tol = max(gate_tol, args.fail_over)
        gating = compare(baseline, current, gate_tol)
    else:
        gating = lines
    regressions = [ln for ln in gating if ln.startswith("REGRESSION")]
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond "
            f"±{gate_tol:.0%} tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
