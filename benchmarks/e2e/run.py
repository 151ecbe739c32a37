"""End-to-end and per-layer benchmark of the reproduction.

Run from anywhere; the checkout is found from this file's location::

    python3 benchmarks/e2e/run.py --seed 1       # all four workloads, traced
    python3 benchmarks/e2e/run.py --workload cold_all --seed 1 --seconds 25 --trace 0

Workloads (why each exists: README.md):

* ``cold_all`` — one op is a fresh ``repro all`` into an empty cache;
* ``warm_all`` — the same against a cache filled once before timing;
* ``des_fault_free`` — fault-free DES programs, in-process;
* ``analytic_sweep`` — the 23 drivers that never touch the DES, in-process.

End-to-end metrics (``cpu_s``, ``setup_s``, ``peak_rss_mb``) come from
untraced ops. Times are CPU seconds scaled by the host speed measured
between ops (``speed.py``), so that a machine that slows down for a
minute does not read as a slower program. With ``--trace 1`` one more op
runs under cProfile in its own child and ``layers.py`` splits its self
time over the program's layers. The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit status: 0
when every op was correct, 1 when any op failed, 2 when the benchmark
could not run.

This process imports only the standard library: all ``repro`` code runs
in children (``child.py``), one at a time, each with one BLAS thread.
"""
# Host wall-clock reads are the measurement here, not simulation state.
# simlint: ignore-file[SL201]

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import pstats
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
import speed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("cold_all", "warm_all", "des_fault_free", "analytic_sweep")
CLI_WORKLOADS = ("cold_all", "warm_all")
END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

DEFAULT_SECONDS = 25.0
#: In-process workloads spread their ops over this many children, so that
#: setup_s is a median and no single process's layout decides cpu_s.
N_CHILDREN = 5
#: A CLI workload runs at least this many ops whatever --seconds says.
MIN_CLI_OPS = 3
#: A child still running after this long is killed (the op fails).
CHILD_TIMEOUT_S = 120.0
IMPORT_SAMPLES = 3
#: ``speed.work()`` calls per calibration between the harness's own
#: children: 0.1 s, beside CLI ops of 0.4–1.5 s.
HARNESS_CALIB_REPS = 10
#: One BLAS/OpenMP thread per child: with the default pool on a 2-core
#: machine, one of four identical processes ran a DistributedLU n=64 op in
#: 228 ms against a 4 ms median (README.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


@dataclass
class Child:
    """One finished child process."""

    rc: int
    cpu_s: float
    rss_mb: float
    log: pathlib.Path
    result: Dict[str, Any] = field(default_factory=dict)
    setup_s: Optional[float] = None


@dataclass
class Measured:
    """What one workload measured. ``op_s`` and ``setups`` are CPU seconds
    scaled to the reference host speed; ``raw_op_s`` and ``speeds`` (CPU
    seconds per ``speed.work()``) are as read."""

    op_s: List[float] = field(default_factory=list)
    raw_op_s: List[float] = field(default_factory=list)
    speeds: List[float] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    exp_walls: Dict[str, List[float]] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)

    def record(self, problems: Sequence[str]) -> None:
        """Count one op, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def add_op(self, raw_s: float, before: float, after: float) -> None:
        """One op's CPU time, with the calibrations on either side."""
        self.op_s.append(scaled(raw_s, before, after))
        self.raw_op_s.append(raw_s)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "cpu_s": statistics.median(self.op_s),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": max(self.rss_mb),
        }


def scaled(seconds: float, before: float, after: float) -> float:
    """CPU seconds measured between two calibrations, in seconds of the
    reference host."""
    return seconds * speed.REFERENCE_S * 2 / (before + after)


def experiment_ids(results_dir: pathlib.Path) -> List[str]:
    """Ids of the artifacts in a reference directory, one CSV each."""
    return sorted(p.stem for p in results_dir.glob("*.csv"))


def per_layer_names(exp_ids: Sequence[str]) -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for layer in layers.LAYERS:
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.calls"] = "count"
    for part in ("total", "repro", "numpy", "scipy"):
        names[f"import.{part}_s"] = "s"
    names.update({
        "network.simnet.transfers": "count",
        "network.simnet.fast_share": "ratio",
        "mpi.jobs": "count",
        "runner.cache_hits": "count",
        "runner.cache_misses": "count",
        "runner.cache_bytes": "bytes",
    })
    for exp_id in exp_ids:
        names[f"exp.{exp_id}.wall_s"] = "s"
    names["trace_overhead"] = "ratio"
    return names


def diff_tree(out_dir: pathlib.Path, ref_dir: pathlib.Path) -> List[str]:
    """Names of files that differ between two flat directories, including
    files present in only one of them."""
    def listing(d: pathlib.Path) -> Dict[str, pathlib.Path]:
        return {p.name: p for p in d.iterdir()} if d.is_dir() else {}

    out, ref = listing(out_dir), listing(ref_dir)
    return [
        name
        for name in sorted(out.keys() | ref.keys())
        if name not in out or name not in ref or out[name].read_bytes() != ref[name].read_bytes()
    ]


def tree_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Harness:
    """Spawns children one at a time inside a private work directory."""

    def __init__(self, work: pathlib.Path, results_dir: pathlib.Path, pins_path: pathlib.Path, seed: int) -> None:
        self.work = work
        self.results_dir = results_dir
        self.pins_path = pins_path
        self.seed = seed
        self.exp_ids = experiment_ids(results_dir)
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            # Fixed string hashing keeps every *.calls count repeatable.
            PYTHONHASHSEED="0",
            TMPDIR=str(work),
        )
        self.spawned = 0

    def spawn(self, argv: List[str]) -> Child:
        """Run ``python argv...`` to completion; its CPU time and peak RSS
        come from the rusage that reaping it returns."""
        self.spawned += 1
        log = self.work / f"child{self.spawned}.log"
        with log.open("w") as fh:
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT
            )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, log)

    def child(self, cfg: Dict[str, Any]) -> Child:
        """Run ``child.py`` with ``cfg``; ``setup_s`` is its CPU time from
        start to ready."""
        result_path = self.work / f"result{self.spawned + 1}.json"
        run = self.spawn([str(HERE / "child.py"), json.dumps(dict(cfg, result=str(result_path)))])
        if result_path.is_file():
            run.result = json.loads(result_path.read_text())
            run.setup_s = run.result["setup_s"]
        return run

    def fail(self, what: str, run: Child) -> HarnessError:
        tail = run.log.read_text().splitlines()[-20:]
        return HarnessError(f"{what} exited {run.rc}:\n" + "\n".join(tail))

    # -- CLI workloads ----------------------------------------------------------
    def cli_op(self, cache: Optional[pathlib.Path], profile: Optional[pathlib.Path] = None):
        op_dir = pathlib.Path(tempfile.mkdtemp(prefix="op-", dir=self.work))
        cache_dir = cache or op_dir / "cache"
        argv = ["all", "--cache-dir", str(cache_dir), "--out", str(op_dir / "out"),
                "--report", str(op_dir / "report.json")]
        run = self.child({"kind": "cli", "argv": argv, "profile": profile and str(profile)})
        report_path = op_dir / "report.json"
        report = json.loads(report_path.read_text()) if report_path.is_file() else {}
        return run, op_dir, cache_dir, report

    def check_cli(self, run: Child, op_dir: pathlib.Path, report: Dict[str, Any], warm: bool) -> List[str]:
        problems = [f"repro all exited {run.rc}"] if run.rc != 0 else []
        problems += [f"{name} differs from the reference" for name in diff_tree(op_dir / "out", self.results_dir)]
        if warm and report.get("hits", 0) < len(self.exp_ids):
            problems.append(f"cache hits {report.get('hits', 0)} < {len(self.exp_ids)}")
        return problems

    def run_cli(self, name: str, seconds: float, trace: bool) -> Measured:
        warm = name == "warm_all"
        cache = None
        if warm:
            cache = self.work / "warm-cache"
            run, op_dir, _, report = self.cli_op(cache)
            if self.check_cli(run, op_dir, report, warm=False):
                raise self.fail("filling the warm cache", run)
            shutil.rmtree(op_dir)
        m = Measured()
        start = time.monotonic()
        m.speeds.append(speed.seconds_per_work(HARNESS_CALIB_REPS))
        while len(m.op_s) < MIN_CLI_OPS or time.monotonic() - start < seconds:
            run, op_dir, _, report = self.cli_op(cache)
            before = m.speeds[-1]
            m.speeds.append(speed.seconds_per_work(HARNESS_CALIB_REPS))
            m.add_op(run.cpu_s, before, m.speeds[-1])
            m.rss_mb.append(run.rss_mb)
            if run.setup_s is not None:
                m.setups.append(scaled(run.setup_s, before, m.speeds[-1]))
            m.record(self.check_cli(run, op_dir, report, warm))
            for row in report.get("experiments", []):
                if not row["cached"]:
                    m.exp_walls.setdefault(row["exp_id"], []).append(row["wall_s"])
            shutil.rmtree(op_dir)
        if trace:
            profile = self.work / "trace.prof"
            run, op_dir, cache_dir, report = self.cli_op(cache, profile)
            m.record(self.check_cli(run, op_dir, report, warm))
            if not profile.is_file():
                raise self.fail("the traced op", run)
            m.per_layer = self.layer_metrics(
                m, profile, run.result.get("net"), run.cpu_s,
                cache=(report.get("hits", 0), report.get("misses", 0), tree_bytes(cache_dir)),
            )
            shutil.rmtree(op_dir)
        return m

    # -- in-process workloads ---------------------------------------------------
    def inproc_cfg(self, name: str, budget_s: float, profile: Optional[pathlib.Path]) -> Dict[str, Any]:
        return {
            "kind": "inproc", "workload": name, "seed": self.seed, "budget_s": budget_s,
            "results_dir": str(self.results_dir), "pins": str(self.pins_path),
            "profile": profile and str(profile),
        }

    def run_inproc(self, name: str, seconds: float, trace: bool) -> Measured:
        m = Measured()
        for _ in range(N_CHILDREN):
            before = speed.seconds_per_work(HARNESS_CALIB_REPS)
            run = self.child(self.inproc_cfg(name, seconds / N_CHILDREN, None))
            if run.rc != 0 or run.setup_s is None:
                raise self.fail(f"a {name} child", run)
            speeds = run.result["speeds"]
            for i, raw_s in enumerate(run.result["op_s"]):
                m.add_op(raw_s, speeds[i], speeds[i + 1])
            m.speeds.extend(speeds)
            m.setups.append(scaled(run.setup_s, before, speeds[0]))
            m.rss_mb.append(run.rss_mb)
            for problems in run.result["failures"]:
                m.record(problems)
            for exp_id, walls in run.result["exp_walls"].items():
                m.exp_walls.setdefault(exp_id, []).extend(walls)
        if trace:
            profile = self.work / "trace.prof"
            run = self.child(self.inproc_cfg(name, 0.0, profile))
            if run.rc != 0 or not profile.is_file():
                raise self.fail(f"the traced {name} op", run)
            m.record(run.result["failures"][0])
            m.per_layer = self.layer_metrics(
                m, profile, run.result.get("net"), run.result["op_s"][0], cache=(0, 0, 0)
            )
        return m

    # -- per-layer metrics ------------------------------------------------------
    def import_times(self) -> Dict[str, float]:
        """Median over IMPORT_SAMPLES fresh interpreters of ``-X importtime``."""
        samples = []
        for _ in range(IMPORT_SAMPLES):
            run = self.spawn(["-X", "importtime", "-c", "import repro.experiments"])
            if run.rc != 0:
                raise self.fail("python -X importtime", run)
            samples.append(layers.parse_importtime(run.log.read_text().splitlines()))
        return {
            part: statistics.median(s.get(part, 0.0) for s in samples)
            for part in ("total", "repro", "numpy", "scipy")
        }

    def layer_metrics(
        self,
        m: Measured,
        profile: pathlib.Path,
        net: Optional[List[int]],
        traced_op_s: float,
        cache: Tuple[int, int, int],
    ) -> Dict[str, float]:
        stats = pstats.Stats(str(profile)).stats
        classify = layers.classifier(ROOT / "src" / "repro", HERE)
        self_s, calls = layers.attribute(stats, classify)
        metrics: Dict[str, float] = {}
        for layer in layers.LAYERS:
            metrics[f"{layer}.self_s"] = self_s[layer]
            metrics[f"{layer}.calls"] = calls[layer]
        for part, seconds in self.import_times().items():
            metrics[f"import.{part}_s"] = seconds
        if net is not None:
            fast, transfers = net
            metrics["network.simnet.transfers"] = transfers
            metrics["network.simnet.fast_share"] = fast / transfers if transfers else 0.0
        metrics["mpi.jobs"] = layers.function_calls(stats, "repro/mpi/job.py", "run")
        hits, misses, nbytes = cache
        metrics.update({"runner.cache_hits": hits, "runner.cache_misses": misses, "runner.cache_bytes": nbytes})
        for exp_id in self.exp_ids:
            walls = m.exp_walls.get(exp_id)
            metrics[f"exp.{exp_id}.wall_s"] = statistics.median(walls) if walls else 0.0
        metrics["trace_overhead"] = traced_op_s / statistics.median(m.raw_op_s)
        profile.unlink()
        return metrics

    def run(self, name: str, seconds: float, trace: bool) -> Measured:
        if name in CLI_WORKLOADS:
            return self.run_cli(name, seconds, trace)
        return self.run_inproc(name, seconds, trace)


def git_commit(root: pathlib.Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(f" {ref}"):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(env: Dict[str, str]) -> Dict[str, Any]:
    def version(dist: str) -> Optional[str]:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {var: env[var] for var in THREAD_VARS},
        "commit": git_commit(ROOT),
    }


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest of p50/p90/p99/p99.9 that has at
    least ten samples beyond it, or ``None`` with fewer than 20 samples."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1 - p / 100) >= 10:
            return p, statistics.quantiles(values, n=1000)[round(p * 10) - 1]
    return None


def report_workload(name: str, m: Measured, units: Dict[str, str]) -> None:
    q1, _, q3 = statistics.quantiles(m.op_s, n=4) if len(m.op_s) > 1 else (m.op_s[0],) * 3
    tail = tail_percentile(m.op_s)
    tail_text = f"p{tail[0]:g} {tail[1]:.6f}" if tail else "no percentile has 10 samples beyond it"
    e2e = m.end_to_end()
    print(f"== {name}")
    print(f"  cpu_s        {e2e['cpu_s']:.6f} s    n={len(m.op_s)} q1={q1:.6f} q3={q3:.6f} {tail_text}")
    print(f"  (as read: op median {statistics.median(m.raw_op_s):.6f} s, "
          f"speed.work() median {statistics.median(m.speeds) * 1e3:.3f} ms "
          f"against the reference {speed.REFERENCE_S * 1e3:g} ms)")
    print(f"  setup_s      {e2e['setup_s']:.6f} s    n={len(m.setups)}")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MiB  n={len(m.rss_mb)}")
    print(f"  fail_frac    {m.failed / m.attempted:.4f} ratio ({m.failed}/{m.attempted} ops failed)")
    for problem in m.problems[:10]:
        print(f"    FAILED: {problem}")
    for metric, value in m.per_layer.items():
        print(f"  {metric:36s} {value:.6g} {units[metric]}")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four, traced)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the des_fault_free inputs")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a profiled op instead")
    return parser.parse_args(argv)


def main(
    argv: Optional[Sequence[str]] = None,
    results_dir: Optional[pathlib.Path] = None,
    pins_path: Optional[pathlib.Path] = None,
) -> int:
    """Run the benchmark; ``results_dir`` and ``pins_path`` override the
    reference outputs (``results/`` and ``pinned.json``)."""
    args = parse_args(argv)
    results_dir = results_dir or ROOT / "results"
    pins_path = pins_path or HERE / "pinned.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not results_dir.is_dir():
        print(f"error: {ROOT} holds no src/repro package or no reference results", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    # Without --workload: every workload, reporting both kinds of metric.
    trace = bool(args.trace) or args.workload is None
    end_to_end = not args.trace or args.workload is None
    work_root = ROOT / ".e2e-bench"
    work_root.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(dir=work_root))
    try:
        harness = Harness(work, results_dir, pins_path, args.seed)
        compiled = harness.spawn(["-m", "compileall", "-q", str(ROOT / "src" / "repro")])
        if compiled.rc != 0:
            raise harness.fail("compileall", compiled)
        measured = {name: harness.run(name, args.seconds, trace) for name in names}
        env = environment(harness.env)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    units = per_layer_names(harness.exp_ids)
    for name, m in measured.items():
        report_workload(name, m, units)
    print(json.dumps({"environment": env}, sort_keys=True))
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, m in measured.items():
        prefix = "" if args.workload else f"{name}."
        if end_to_end:
            for metric, value in m.end_to_end().items():
                metrics[prefix + metric] = {"value": value, "unit": END_TO_END[metric]}
        if trace:
            for metric, value in m.per_layer.items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    attempted = sum(m.attempted for m in measured.values())
    failed = sum(m.failed for m in measured.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
