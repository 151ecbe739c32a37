"""End-to-end tests of the ``repro-trace`` CLI over real trace files."""

import pytest

from repro.hpcc import PingPong
from repro.machine.configs import xt4
from repro.obs import Tracer, installed, write_chrome_trace, write_jsonl
from repro.obs.cli import main


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """One SN and one VN ping-pong trace on disk (JSON + JSONL)."""
    tmp = tmp_path_factory.mktemp("traces")
    paths = {}
    for mode in ("SN", "VN"):
        with installed(Tracer(meta={"mode": mode})) as tracer:
            PingPong(xt4(mode)).run_des(nbytes=1024, iters=4)
        paths[mode] = write_chrome_trace(tracer, str(tmp / f"{mode}.json"))
        if mode == "SN":
            paths["SN_jsonl"] = write_jsonl(tracer, str(tmp / "SN.jsonl"))
    return paths


def test_summary_renders_tables(traces, capsys):
    assert main(["summary", traces["SN"], "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "trace summary" in out
    assert "top 5 spans by self time" in out
    assert "mpi.send" in out
    assert "net.xfer" in out
    assert "link hotspots" in out
    assert "mode=SN" in out  # metadata surfaced


def test_summary_counter_prefix(traces, capsys):
    assert main(["summary", traces["SN"], "--counters", "net.nic"]) == 0
    out = capsys.readouterr().out
    assert "net.nic[" in out
    assert "net.link[" not in out.split("counters")[-1]


def test_summary_reads_jsonl(traces, capsys):
    assert main(["summary", traces["SN_jsonl"]]) == 0
    assert "net.xfer" in capsys.readouterr().out


def test_diff_modes(traces, capsys):
    assert main(["diff", traces["SN"], traces["VN"]]) == 0
    out = capsys.readouterr().out
    assert "trace diff (A -> B)" in out
    assert "span totals by |delta|" in out
    assert "counter finals by |delta|" in out


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["summary", str(tmp_path / "nope.json")]) == 2
    assert "repro-trace:" in capsys.readouterr().err


def test_module_alias_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "repro-trace" in proc.stdout
