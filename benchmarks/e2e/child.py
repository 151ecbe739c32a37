"""One child process of the end-to-end benchmark.

``run.py`` spawns ``python child.py '<json config>'`` with ``src`` on
``PYTHONPATH`` and one BLAS thread. The child writes what it measured to
``config["result"]`` as JSON. Two kinds:

* ``cli`` — one ``repro all`` exactly as a user runs it: start-up, then
  ``import repro.experiments`` (the child's set-up), then
  ``repro.__main__.main``. The harness checks the files it wrote.
* ``inproc`` — one in-process workload (``WORKLOADS``): import, build
  the seeded inputs, one untimed warm-up op (together the set-up), then
  timed ops until the child's time budget is spent, each followed by a
  ``speed.work`` calibration. Every timed op is checked here, against
  references whose locations the harness passes in.

Times are the process's CPU seconds (``time.process_time``): set-up is
the CPU time at the end of set-up, counted from the process's start.

With ``config["profile"]`` set, the child instead runs one op under
cProfile and dumps the stats there for ``layers.py``.

Only the standard library, numpy and the public API of the measured
layers are imported, so the benchmark outlives refactors of the tooling.
"""
# Host clock reads are the measurement here, not simulation state.
# simlint: ignore-file[SL201]

from __future__ import annotations

import cProfile
import importlib
import json
import pathlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import speed

#: Drivers that run the discrete-event simulator; every other driver is
#: purely analytic.
DES_DRIVERS = ("ext_resilience", "fig01", "fig12_13")


def clear_memo(module) -> None:
    """Clear every ``cache_clear()``-able attribute of a driver's module,
    so that calling the driver again re-simulates instead of returning
    its memoized sweep."""
    for value in vars(module).values():
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()


def count_transfers() -> Callable[[], Optional[List[int]]]:
    """Start counting network transfers. Returns a function giving
    ``[fast-path transfers, transfers]`` since this call, or ``None`` if
    ``repro.network.simnet`` no longer offers the counters.

    The runner resets the process-wide totals around every driver, so
    the reset is wrapped to bank what it clears.
    """
    from repro.network import simnet

    totals = getattr(simnet, "transfer_totals", None)
    reset = getattr(simnet, "reset_transfer_totals", None)
    if totals is None or reset is None:
        return lambda: None
    reset()
    banked = [0, 0]

    def banking_reset():
        cleared = reset()
        banked[0] += cleared[0]
        banked[1] += cleared[1]
        return cleared

    simnet.reset_transfer_totals = banking_reset
    return lambda: [b + t for b, t in zip(banked, totals())]


def driver_and_module(exp_id: str):
    from repro.core.registry import get_experiment

    driver = get_experiment(exp_id)
    return driver, importlib.import_module(driver.__module__)


class AnalyticSweep:
    """Every driver that never touches the DES, memo cleared, then its
    shape checks; the rendered CSV must equal the reference byte for byte."""

    def __init__(self, seed: int, results_dir: pathlib.Path, pins_path: pathlib.Path) -> None:
        from repro.core.registry import all_experiments

        del seed, pins_path  # the sweep's inputs are the paper's fixed sweep
        self.drivers = {
            exp_id: driver_and_module(exp_id)
            for exp_id in all_experiments()
            if exp_id not in DES_DRIVERS
        }
        self.refs = {
            exp_id: (results_dir / f"{exp_id}.csv").read_text()
            for exp_id in self.drivers
        }

    def op(self) -> Dict[str, Any]:
        from repro.core.report import render_csv

        csv, passed, exp_walls = {}, {}, {}
        for exp_id, (driver, module) in self.drivers.items():
            clear_memo(module)
            t0 = time.perf_counter()
            result = driver()
            passed[exp_id] = module.shape_checks(result).passed
            exp_walls[exp_id] = time.perf_counter() - t0
            csv[exp_id] = render_csv(result)
        return {"csv": csv, "passed": passed, "exp_walls": exp_walls}

    def check(self, out: Dict[str, Any]) -> List[str]:
        problems = [f"{i}: shape checks failed" for i, ok in out["passed"].items() if not ok]
        problems += [
            f"{i}: CSV differs from the reference"
            for i, text in out["csv"].items()
            if text != self.refs[i]
        ]
        return problems


def _pingpong(comm):
    peer = 1 - comm.rank
    for i in range(1000):
        if comm.rank == 0:
            yield from comm.send(b"", dest=peer, nbytes=8, tag=i)
            yield from comm.recv(source=peer, tag=i)
        else:
            yield from comm.recv(source=peer, tag=i)
            yield from comm.send(b"", dest=peer, nbytes=8, tag=i)
    return comm.wtime()


def _allreduce(comm):
    total = 0
    for _ in range(20):
        total = yield from comm.allreduce(comm.rank, op="sum")
    return total


def _alltoall(comm):
    out = yield from comm.alltoall([comm.rank] * comm.size)
    return sum(out)


class DesFaultFree:
    """Fault-free DES programs: the two DES drivers (memo cleared), two
    DES companions, three MPI patterns and the four distributed HPCC
    kernels on inputs drawn from the seed. Simulated times must equal the
    pinned values and the numerics must agree with numpy."""

    def __init__(self, seed: int, results_dir: pathlib.Path, pins_path: pathlib.Path) -> None:
        import numpy as np

        from repro.hpcc import DistributedRandomAccess
        from repro.machine import xt4

        rng = np.random.default_rng(seed)
        n = 64
        self.lu_a = rng.standard_normal((n, n)) + n * np.eye(n)
        self.lu_x = rng.standard_normal(n)
        self.lu_b = self.lu_a @ self.lu_x
        self.signal = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        self.pt_a = rng.standard_normal((128, 128))
        self.pt_c = rng.standard_normal((128, 128))
        self.spectrum = np.fft.fft(self.signal)
        self.ra = DistributedRandomAccess(xt4("VN"), 4, table_bits=12, updates_per_rank=1024)
        self.ra_table = self.ra.expected_table()
        self.drivers = {exp_id: driver_and_module(exp_id) for exp_id in ("fig01", "fig12_13")}
        self.companions = {
            exp_id: driver_and_module(exp_id)[1].des_companion for exp_id in ("fig02", "fig22")
        }
        self.refs = {exp_id: (results_dir / f"{exp_id}.csv").read_text() for exp_id in self.drivers}
        self.pins = json.loads(pins_path.read_text())

    def op(self) -> Dict[str, Any]:
        from repro.core.report import render_csv
        from repro.hpcc import DistributedFFT, DistributedLU, DistributedPTRANS
        from repro.machine import xt4
        from repro.mpi import MPIJob

        csv, exp_walls = {}, {}
        for exp_id, (driver, module) in self.drivers.items():
            clear_memo(module)
            t0 = time.perf_counter()
            result = driver()
            exp_walls[exp_id] = time.perf_counter() - t0
            csv[exp_id] = render_csv(result)
        companion = {exp_id: fn() for exp_id, fn in self.companions.items()}
        jobs = {
            "pingpong": MPIJob(xt4("SN"), 2).run(_pingpong),
            "allreduce": MPIJob(xt4("VN"), 64).run(_allreduce),
            "alltoall": MPIJob(xt4("VN"), 32).run(_alltoall),
        }
        numerics = {
            "allreduce": jobs["allreduce"].returns[0],
            "alltoall": jobs["alltoall"].returns[0],
        }
        numerics["lu"], jobs["lu"] = DistributedLU(xt4("VN"), 4, block=8).solve(self.lu_a, self.lu_b)
        numerics["fft"], jobs["fft"] = DistributedFFT(xt4("VN"), 4, n1=32, n2=32).transform(self.signal)
        numerics["randomaccess"], jobs["randomaccess"] = self.ra.run()
        numerics["ptrans"], jobs["ptrans"] = DistributedPTRANS(xt4("SN"), 8).run(self.pt_a, self.pt_c)
        return {
            "csv": csv,
            "companion": companion,
            "elapsed_s": {name: job.elapsed_s for name, job in jobs.items()},
            "numerics": numerics,
            "exp_walls": exp_walls,
        }

    def check(self, out: Dict[str, Any]) -> List[str]:
        import numpy as np

        problems = [
            f"{i}: CSV differs from the reference"
            for i, text in out["csv"].items()
            if text != self.refs[i]
        ]
        for kind in ("companion", "elapsed_s"):
            pinned = self.pins[kind]
            problems += [
                f"{kind} {name}: {value!r} != pinned {pinned.get(name)!r}"
                for name, value in out[kind].items()
                if value != pinned.get(name)
            ]
        got = out["numerics"]
        expect = {
            "allreduce": got["allreduce"] == sum(range(64)),
            "alltoall": got["alltoall"] == sum(range(32)),
            "lu": np.allclose(got["lu"], self.lu_x, atol=1e-8),
            "fft": np.allclose(got["fft"], self.spectrum, atol=1e-8),
            "randomaccess": np.array_equal(got["randomaccess"], self.ra_table),
            "ptrans": np.array_equal(got["ptrans"], self.pt_a.T + self.pt_c),
        }
        problems += [f"{name}: result disagrees with numpy" for name, ok in expect.items() if not ok]
        return problems


WORKLOADS: Dict[str, Callable[..., Any]] = {
    "analytic_sweep": AnalyticSweep,
    "des_fault_free": DesFaultFree,
}


def cli_child(cfg: Dict[str, Any]) -> Dict[str, Any]:
    profiler = cProfile.Profile() if cfg["profile"] else None
    if profiler is not None:
        profiler.enable()
    import repro.experiments  # noqa: F401  -- start-up plus import is set-up

    setup_s = time.process_time()
    from repro.__main__ import main as repro_main

    transfers = count_transfers() if profiler is not None else None
    rc = repro_main(cfg["argv"])
    out: Dict[str, Any] = {"setup_s": setup_s, "rc": rc}
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(cfg["profile"])
        out["net"] = transfers()
    return out


def inproc_child(cfg: Dict[str, Any]) -> Dict[str, Any]:
    import repro.experiments  # noqa: F401

    workload = WORKLOADS[cfg["workload"]](
        cfg["seed"], pathlib.Path(cfg["results_dir"]), pathlib.Path(cfg["pins"])
    )
    t0 = time.process_time()
    workload.op()  # warm-up: lazy imports and memo caches outside the drivers
    setup_s = time.process_time()
    warm_up_s = setup_s - t0
    op_s: List[float] = []
    speeds: List[float] = []
    failures: List[List[str]] = []
    exp_walls: Dict[str, List[float]] = {}
    out: Dict[str, Any] = {"setup_s": setup_s}
    if cfg["profile"]:
        transfers = count_transfers()
        profiler = cProfile.Profile()
        t0 = time.process_time()
        profiler.enable()
        result = workload.op()
        profiler.disable()
        op_s.append(time.process_time() - t0)
        profiler.dump_stats(cfg["profile"])
        out["net"] = transfers()
        failures.append(workload.check(result))
    else:
        # Calibrations sit between ops, each about half an op long:
        # speeds[i] and speeds[i + 1] bracket op_s[i].
        reps = max(1, round(warm_up_s / 2 / speed.REFERENCE_S))
        speeds.append(speed.seconds_per_work(reps))
        deadline = time.monotonic() + cfg["budget_s"]
        while not op_s or time.monotonic() < deadline:
            t0 = time.process_time()
            try:
                result = workload.op()
            except Exception as exc:  # a failed op, not a lost child
                result = None
                failures.append([f"op raised {exc!r}"])
            op_s.append(time.process_time() - t0)
            speeds.append(speed.seconds_per_work(reps))
            if result is not None:
                failures.append(workload.check(result))
                for exp_id, wall in result["exp_walls"].items():
                    exp_walls.setdefault(exp_id, []).append(wall)
    out.update(op_s=op_s, speeds=speeds, failures=failures, exp_walls=exp_walls)
    return out


def main(argv: List[str]) -> int:
    cfg = json.loads(argv[1])
    out = cli_child(cfg) if cfg["kind"] == "cli" else inproc_child(cfg)
    pathlib.Path(cfg["result"]).write_text(json.dumps(out))
    return out.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
