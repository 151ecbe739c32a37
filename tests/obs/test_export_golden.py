"""Exporter golden-file and round-trip tests.

The golden file under ``golden/`` pins the exact serialized bytes of a
hand-built tracer, so any change to the export format (field order,
number formatting, event ordering) fails loudly. Regenerate it by
running this file as a script::

    PYTHONPATH=src python tests/obs/test_export_golden.py
"""

import json
import pathlib

import pytest

from repro.obs import (
    TraceData,
    Tracer,
    dumps_chrome_trace,
    load_trace,
    write_chrome_trace,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def hand_built_tracer() -> Tracer:
    """A small fixed tracer exercising every exporter feature."""
    tracer = Tracer(meta={"name": "golden", "seed": 7})
    tracer.complete("rank0", "mpi.send", 0.0, 1.5e-6, bytes=8)
    tracer.complete("rank1", "mpi.recv", 0.5e-6, 2.0e-6)
    tracer.complete("rank0", "compute.dgemm", 2.0e-6, 5.0e-6)
    tracer.begin("net/node0", "net.xfer", 1.0e-6, src=0, dst=1)  # left open
    tracer.add("net.link[0,0,0.+x].bytes", 2.0e-6, 8.0)
    tracer.add("net.link[0,0,0.+x].bytes", 1.0e-6, 4.0)  # out of order
    tracer.add("engine.resource[nic_tx[0]].queue_depth", 1.0e-6, 2.0)
    tracer.add("engine.resource[nic_tx[0]].queue_depth", 3.0e-6, -2.0)
    return tracer


def test_chrome_golden():
    expected = (GOLDEN / "hand_built.trace.json").read_text()
    assert dumps_chrome_trace(hand_built_tracer()) == expected


def test_chrome_trace_structure():
    doc = json.loads(dumps_chrome_trace(hand_built_tracer()))
    assert doc["otherData"] == {"name": "golden", "seed": 7}
    events = doc["traceEvents"]
    names = {ev["args"]["name"] for ev in events
             if ev["ph"] == "M" and ev["name"] == "thread_name"}
    assert names == {"rank0", "rank1", "net/node0"}
    # Complete events carry microsecond timestamps.
    sends = [ev for ev in events if ev["ph"] == "X" and ev["name"] == "mpi.send"]
    assert sends[0]["ts"] == 0.0 and sends[0]["dur"] == 1.5
    # The open net.xfer span was closed at the trace end (5 us).
    xfer = [ev for ev in events if ev["name"] == "net.xfer"][0]
    assert xfer["ts"] + xfer["dur"] == pytest.approx(5.0)
    # Counter events are integrated and time-ordered.
    link = [ev["args"]["value"] for ev in events
            if ev["ph"] == "C" and ev["name"].startswith("net.link")]
    assert link == [4.0, 12.0]


def test_chrome_round_trip(tmp_path):
    tracer = hand_built_tracer()
    reference = TraceData.from_tracer(tracer)
    loaded = load_trace(write_chrome_trace(tracer, str(tmp_path / "t.json")))
    assert loaded.meta["name"] == "golden"
    assert [(s.track, s.name) for s in loaded.spans] == [
        (s.track, s.name) for s in reference.spans
    ]
    for got, want in zip(loaded.spans, reference.spans):
        assert abs(got.t0 - want.t0) < 1e-15
        assert abs(got.t1 - want.t1) < 1e-15
    assert set(loaded.counters) == set(reference.counters)
    for cname, want_series in reference.counters.items():
        got_series = loaded.counters[cname]
        assert len(got_series) == len(want_series)
        for (gt, gv), (wt, wv) in zip(got_series, want_series):
            assert abs(gt - wt) < 1e-15 and abs(gv - wv) < 1e-12


def test_load_trace_rejects_empty_and_junk(tmp_path):
    cases = {
        "empty.json": ("", "empty"),
        "text.json": ("not a trace\n", "not JSON"),
        "other.json": ('{"spans": []}\n', "no traceEvents"),
    }
    for name, (text, why) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=why) as err:
            load_trace(str(path))
        assert str(path) in str(err.value)


def _regenerate() -> None:  # pragma: no cover - manual tool
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "hand_built.trace.json").write_text(
        dumps_chrome_trace(hand_built_tracer())
    )
    print(f"regenerated the golden file in {GOLDEN}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
