"""Trace exporter and the matching loader.

The on-disk format is **Chrome trace-event JSON**, which Perfetto and
``chrome://tracing`` load directly. It is deterministic: a seeded run
serializes byte-for-byte identically. Each span track (rank, link,
resource, process) becomes one named thread; counters become ``"C"``
events, which Perfetto renders as their own counter tracks.

:func:`load_trace` reads a trace back into a neutral
:class:`TraceData` for assertions and ad-hoc analysis.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracer import Span, Tracer

__all__ = [
    "TraceData",
    "chrome_trace_events",
    "dumps_chrome_trace",
    "load_trace",
    "write_chrome_trace",
]

#: Seconds → trace-event microseconds.
_US_PER_S = 1.0e6


def _span_sort_key(span: Span) -> Tuple[float, float, str, str]:
    return (span.t0, span.t1 if span.t1 is not None else span.t0,
            span.track, span.name)


def _category(name: str) -> str:
    """Event category: the ``layer`` segment of a dotted span name."""
    return name.split(".", 1)[0] if "." in name else name


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The tracer's content as a Chrome trace-event list.

    One ``pid`` holds every span track (one named ``tid`` per track, in
    sorted track order); counters ride on ``"C"`` events. Still-open
    spans are closed at the trace's end time first.
    """
    tracer.close_open_spans(tracer.end_time)
    tracks = sorted({s.track for s in tracer.spans})
    tid_of = {track: i + 1 for i, track in enumerate(tracks)}
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": str(tracer.meta.get("name", "repro-sim"))},
        }
    ]
    for track in tracks:
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid_of[track],
                "name": "thread_name",
                "args": {"name": track},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid_of[track],
                "name": "thread_sort_index",
                "args": {"sort_index": tid_of[track]},
            }
        )
    for span in sorted(tracer.spans, key=_span_sort_key):
        assert span.t1 is not None  # close_open_spans ran above
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tid_of[span.track],
                "name": span.name,
                "cat": _category(span.name),
                "ts": span.t0 * _US_PER_S,
                "dur": (span.t1 - span.t0) * _US_PER_S,
                "args": span.args,
            }
        )
    for cname in sorted(tracer.counters):
        for t, value in tracer.counters[cname].series():
            events.append(
                {
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "name": cname,
                    "ts": t * _US_PER_S,
                    "args": {"value": value},
                }
            )
    return events


def dumps_chrome_trace(tracer: Tracer) -> str:
    """Serialize to Chrome trace-event JSON (deterministic byte-for-byte)."""
    doc = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": dict(sorted(tracer.meta.items())),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write Perfetto-loadable JSON to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_chrome_trace(tracer))
    return path


class TraceData:
    """A loaded trace in neutral form.

    ``counters`` maps a counter name to its time-ordered
    ``[(t, value), ...]`` series.
    """

    def __init__(
        self,
        spans: Optional[List[Span]] = None,
        counters: Optional[Dict[str, List[Tuple[float, float]]]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.spans = [] if spans is None else spans
        self.counters = {} if counters is None else counters
        self.meta = {} if meta is None else meta

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceData":
        """In-memory view of a live tracer (no round trip through disk)."""
        tracer.close_open_spans(tracer.end_time)
        return cls(
            spans=sorted(tracer.spans, key=_span_sort_key),
            counters={
                name: counter.series()
                for name, counter in sorted(tracer.counters.items())
            },
            meta=dict(tracer.meta),
        )


def _load_chrome(doc: Dict[str, Any]) -> TraceData:
    data = TraceData(meta=dict(doc.get("otherData", {})))
    track_of: Dict[Tuple[int, int], str] = {}
    events = doc["traceEvents"]
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            track_of[(ev["pid"], ev["tid"])] = ev["args"]["name"]
    for ev in events:
        ph = ev.get("ph")
        if ph == "X":
            t0 = ev["ts"] / _US_PER_S
            data.spans.append(
                Span(
                    track=track_of.get(
                        (ev["pid"], ev["tid"]), f"tid{ev['tid']}"
                    ),
                    name=ev["name"],
                    t0=t0,
                    t1=t0 + ev.get("dur", 0.0) / _US_PER_S,
                    args=dict(ev.get("args", {})),
                )
            )
        elif ph == "C":
            data.counters.setdefault(ev["name"], []).append(
                (ev["ts"] / _US_PER_S, float(ev["args"]["value"]))
            )
    data.spans.sort(key=_span_sort_key)
    for series in data.counters.values():
        series.sort(key=lambda tv: tv[0])
    return data


def load_trace(path: str) -> TraceData:
    """Load a Chrome trace-event JSON file written by
    :func:`write_chrome_trace`.

    Raises :class:`ValueError` naming ``path`` for an empty file,
    non-JSON text or a JSON document without ``traceEvents``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError(f"{path}: empty trace file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents)")
    return _load_chrome(doc)
