"""``repro-trace``: summarise and compare simulation traces.

Usage::

    repro-trace summary TRACE [--top K] [--counters PREFIX]
    repro-trace diff A B [--top K]
    python -m repro.obs summary results/s3d.trace.json

``summary`` prints the top-k spans by self time, the link-hotspot table
and per-counter statistics; ``diff`` compares two traces the way the
paper's tables compare SN and VN mode — per-operation totals side by
side with the delta that explains the gap.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.report import render_table
from repro.obs.analyze import (
    counter_summary_rows,
    diff_counter_rows,
    diff_span_rows,
    link_hotspot_rows,
    span_summary_rows,
)
from repro.obs.export import TraceData, load_trace

__all__ = ["main", "render_diff", "render_summary"]


def render_summary(
    trace: TraceData,
    top: int = 10,
    counter_prefix: str = "",
    label: str = "",
) -> str:
    """The full text summary of one trace."""
    out = []
    heading = f"trace summary{': ' + label if label else ''}"
    meta = ", ".join(f"{k}={v}" for k, v in sorted(trace.meta.items()))
    out.append(
        f"== {heading} ==\n"
        f"spans: {len(trace.spans)}   counters: {len(trace.counters)}   "
        f"end: {trace.end_time * 1e3:.4g} ms" + (f"   [{meta}]" if meta else "")
    )
    span_rows = span_summary_rows(trace, top=top)
    if span_rows:
        out.append(render_table(span_rows, title=f"top {top} spans by self time"))
    hotspots = link_hotspot_rows(trace, top=top)
    if hotspots:
        out.append(render_table(hotspots, title="link hotspots"))
    counter_rows = counter_summary_rows(trace, prefix=counter_prefix)
    if counter_rows:
        title = "counters" + (
            f" ({counter_prefix}*)" if counter_prefix else ""
        )
        out.append(render_table(counter_rows, title=title))
    return "\n".join(out)


def render_diff(a: TraceData, b: TraceData, top: int = 10) -> str:
    """Side-by-side comparison of two traces (A → B)."""
    out = [
        "== trace diff (A -> B) ==\n"
        f"A: {len(a.spans)} spans, end {a.end_time * 1e3:.4g} ms    "
        f"B: {len(b.spans)} spans, end {b.end_time * 1e3:.4g} ms"
    ]
    span_rows = diff_span_rows(a, b, top=top)
    if span_rows:
        out.append(render_table(span_rows, title="span totals by |delta|"))
    counter_rows = diff_counter_rows(a, b, top=top)
    if counter_rows:
        out.append(render_table(counter_rows, title="counter finals by |delta|"))
    return "\n".join(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarise and compare repro simulation traces "
        "(Chrome/Perfetto JSON or repro-obs JSONL).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser("summary", help="summarise one trace")
    p_sum.add_argument("trace", help="trace file (.json or .jsonl)")
    p_sum.add_argument("--top", type=int, default=10,
                       help="rows per ranking table (default 10)")
    p_sum.add_argument("--counters", default="", metavar="PREFIX",
                       help="only show counters with this name prefix")
    p_diff = sub.add_parser("diff", help="compare two traces (A -> B)")
    p_diff.add_argument("trace_a")
    p_diff.add_argument("trace_b")
    p_diff.add_argument("--top", type=int, default=10,
                        help="rows per ranking table (default 10)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "summary":
            trace = load_trace(args.trace)
            print(render_summary(trace, top=args.top,
                                 counter_prefix=args.counters,
                                 label=args.trace))
        else:
            a = load_trace(args.trace_a)
            b = load_trace(args.trace_b)
            print(render_diff(a, b, top=args.top))
    except (OSError, ValueError) as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
