"""``repro all --profile DIR``: one cProfile ``.pstats`` file per executed
experiment, and profiling leaves the results bit-identical."""

import os
import pathlib
import pstats
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
RESULTS = REPO / "results"


def test_profile_writes_loadable_pstats_and_identical_results(tmp_path):
    profiles = tmp_path / "profiles"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "all", "--only", "fig12_13",
         "--profile", str(profiles), "--no-cache", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "cache: bypassed" in proc.stdout

    stats = pstats.Stats(str(profiles / "fig12_13.pstats"))
    files = {pathlib.PurePath(filename).as_posix()
             for filename, _line, _func in stats.stats}
    assert any("repro/simengine/" in f for f in files)

    written = sorted(p.name for p in out.iterdir())
    assert written == ["fig12_13.csv", "fig12_13.txt"]
    for name in written:
        assert (out / name).read_bytes() == (RESULTS / name).read_bytes()
