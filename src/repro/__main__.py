"""Command-line interface: list, run and export the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig08 [--plot] [--logx]
    python -m repro run fig02 --trace fig02.trace.json   # Perfetto trace
    python -m repro all [--out results/] [--force] [--no-cache]
    python -m repro all --profile profiles/              # + cProfile .pstats
    python -m repro cache verify [--delete]              # result-store hygiene
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
from typing import List, Optional

# Only numpy-free modules at top level: `repro list` and a fully cached
# `repro all` must not import a driver or a model.
from repro.core.registry import (
    UnknownExperimentError,
    check_shape,
    experiment_titles,
    get_experiment,
)
from repro.core.report import (
    render_ascii_plot,
    render_result,
    write_artifacts,
)


def add_trace_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the standard ``--trace PATH`` option to a parser.

    ``cmd_run`` passes ``args.trace`` to ``tracing_to``; the installed
    tracer then reaches every :class:`~repro.simengine.Simulator` the
    experiment (or its ``des_companion``) creates.
    """
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Perfetto (Chrome trace-event JSON) trace of the "
        "experiment's discrete-event companion runs to PATH",
    )


def add_faults_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the standard ``--faults PLAN.json`` option to a parser.

    The installed :class:`~repro.faults.FaultPlan` reaches every
    :class:`~repro.mpi.job.MPIJob` the experiment (or its
    ``des_companion``) creates that does not name its own plan.
    """
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="inject faults from a JSON fault plan (see docs/RESILIENCE.md; "
        "author one with `FaultPlan.sample(...).save(PATH)`)",
    )


def cmd_list(_args: argparse.Namespace) -> int:
    # Titles come from the static manifest: listing 26 experiments
    # imports no driver, let alone replays a simulated sweep.
    for exp_id, title in experiment_titles().items():
        print(f"{exp_id:14s} {title}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        driver = get_experiment(args.exp_id)
    except UnknownExperimentError as exc:
        print(exc)
        return 2
    from repro.experiments.common import faults_from, tracing_to

    companion_report = None
    with faults_from(args.faults), \
            tracing_to(args.trace, exp_id=args.exp_id) as tracer:
        result = driver()
        if tracer is not None:
            module = importlib.import_module(driver.__module__)
            companion = getattr(module, "des_companion", None)
            if companion is not None:
                companion_report = companion()
    print(render_result(result))
    if args.plot:
        print(render_ascii_plot(result, logx=args.logx))
    if companion_report is not None:
        print(companion_report)
    if args.trace:
        if companion_report is None:
            print(
                f"note: {args.exp_id} is analytic (no DES companion); "
                "the trace carries metadata only"
            )
        print(f"wrote {args.trace} (open at https://ui.perfetto.dev)")
    check = check_shape(args.exp_id, result)
    print(check.summary())
    return 0 if check.passed else 1


def cmd_machine(args: argparse.Namespace) -> int:
    from repro.core.report import render_table
    from repro.machine.calibration import audit
    from repro.machine.configs import (
        xt3,
        xt3_dc,
        xt3_xt4_combined,
        xt4,
        xt4_quadcore,
    )
    from repro.machine.io import load_machine, save_machine

    factories = {
        "xt3": xt3,
        "xt3-dc": xt3_dc,
        "xt4": xt4,
        "xt4-qc": xt4_quadcore,
        "xt3/4": xt3_xt4_combined,
    }
    if args.load:
        machine = load_machine(args.load)
    else:
        try:
            machine = factories[args.name.lower()](args.mode)
        except KeyError:
            print(f"unknown machine {args.name!r}; choose from {sorted(factories)}")
            return 2
    from repro.core.analysis import balance_table
    from repro.hpcc import HPCCSuite

    print(render_table(balance_table([machine]), title=str(machine)))
    metrics = HPCCSuite(machine).all_metrics()
    print(render_table([{"metric": k, "value": round(v, 4)} for k, v in metrics.items()]))
    if args.audit:
        print(render_table(audit(), title="calibration register"))
    if args.save:
        save_machine(machine, args.save)
        print(f"wrote {args.save}")
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    from repro.core.registry import resolve_ids
    from repro.obs import Tracer, write_chrome_trace
    from repro.runner import ExperimentRunner, ResultCache

    try:
        ids = resolve_ids(args.only.split(",") if args.only else None)
    except UnknownExperimentError as exc:
        print(exc)
        return 2

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_dir: Optional[str] = None
    tracer: Optional[Tracer] = None
    if args.trace:
        trace_dir = str(pathlib.Path(args.trace))
        pathlib.Path(trace_dir).mkdir(parents=True, exist_ok=True)
        tracer = Tracer(meta={"command": "all"})
    pstats_dir: Optional[str] = None
    if args.profile:
        pstats_dir = str(pathlib.Path(args.profile))
        pathlib.Path(pstats_dir).mkdir(parents=True, exist_ok=True)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = ExperimentRunner(
        cache,
        force=args.force,
        faults_path=args.faults,
        trace_dir=trace_dir,
        pstats_dir=pstats_dir,
        tracer=tracer,
    )
    try:
        outcomes = runner.run(ids)
    except KeyboardInterrupt:
        # Every finished experiment was stored before the next one
        # started, and the in-flight atomic write was allowed to finish
        # (defer_sigint in ResultCache.put): a re-run resumes from there.
        print(
            "\ninterrupted: cache is consistent; re-run `repro all` to "
            "resume from completed experiments"
        )
        return 130

    failures = 0
    report_rows = []
    for o in outcomes:
        write_artifacts(o.result, out)
        status = "PASS" if o.passed else "FAIL"
        if not o.passed:
            failures += 1
        origin = "cached" if o.from_cache else f"{o.wall_s:6.2f}s"
        print(f"[{status}] {o.exp_id:14s} {origin}")
        report_rows.append(
            {
                "exp_id": o.exp_id,
                "cached": o.from_cache,
                "wall_s": round(o.wall_s, 6),
                "status": status,
                "key": o.key,
            }
        )
    print(
        f"wrote {2 * len(outcomes)} files ({len(outcomes)} experiments) "
        f"to {out}/"
    )
    if cache is not None:
        print(
            f"cache: {runner.hits} hits, {runner.misses} misses "
            f"({args.cache_dir})"
        )
    elif trace_dir is not None or pstats_dir is not None:
        print("cache: bypassed (tracing/profiling forces execution)")
    else:
        print("cache: disabled")
    if tracer is not None:
        runner_trace = pathlib.Path(trace_dir) / "runner.trace.json"
        write_chrome_trace(tracer, str(runner_trace))
        print(f"wrote per-experiment traces and {runner_trace}")
    if pstats_dir is not None:
        print(
            f"wrote host-time profiles to {pstats_dir}/ "
            "(inspect with `python -m pstats`)"
        )
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(
                {
                    "experiments": report_rows,
                    "hits": runner.hits,
                    "misses": runner.misses,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote timing report to {args.report}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the SC'07 Cray XT4 evaluation's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")
    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("exp_id", help="artifact id, e.g. fig08")
    p_run.add_argument("--plot", action="store_true", help="ASCII plot")
    p_run.add_argument("--logx", action="store_true", help="log-scale x")
    add_trace_flag(p_run)
    add_faults_flag(p_run)
    p_all = sub.add_parser(
        "all", help="run everything (cached), write CSV/txt"
    )
    p_all.add_argument("--out", default="results", help="output directory")
    p_all.add_argument(
        "--only", metavar="IDS",
        help="comma-separated experiment ids to run (default: all)",
    )
    p_all.add_argument(
        "--force", action="store_true",
        help="re-execute even on a cache hit and refresh the entry",
    )
    p_all.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache entirely (no reads, no writes)",
    )
    p_all.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="cache location (default .repro-cache/)",
    )
    p_all.add_argument(
        "--report", metavar="PATH",
        help="write a JSON timing/cache report to PATH",
    )
    p_all.add_argument(
        "--trace", metavar="DIR", default=None,
        help="write one Perfetto trace per experiment into DIR "
        "(forces execution: cached results carry no trace)",
    )
    p_all.add_argument(
        "--profile", metavar="DIR", default=None,
        help="run every experiment under cProfile and write "
        "DIR/<exp_id>.pstats (forces execution: cached results carry "
        "no profile)",
    )
    add_faults_flag(p_all)
    p_cache = sub.add_parser("cache", help="result-store hygiene")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_verify = cache_sub.add_parser(
        "verify", help="scan for corrupt/misplaced/abandoned/stale files"
    )
    p_verify.add_argument(
        "--delete", action="store_true",
        help="remove every problem file found (always safe: the store "
        "is a cache, the runner recomputes on miss)",
    )
    p_verify.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="cache location (default .repro-cache/)",
    )
    p_mach = sub.add_parser("machine", help="inspect or export a machine config")
    p_mach.add_argument("name", nargs="?", default="xt4",
                        help="xt3 | xt3-dc | xt4 | xt4-qc | xt3/4")
    p_mach.add_argument("--mode", default="SN", help="SN or VN")
    p_mach.add_argument("--save", help="write the config as JSON")
    p_mach.add_argument("--load", help="load a JSON config instead of a name")
    p_mach.add_argument("--audit", action="store_true",
                        help="print the calibration register")
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "cache":
        from repro.runner.cache_cli import verify

        return verify(args.cache_dir, delete=args.delete)
    if args.command == "machine":
        return cmd_machine(args)
    return cmd_all(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
