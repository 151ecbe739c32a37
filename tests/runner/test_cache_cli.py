"""``repro cache verify``: classification and deletion."""

import os
import shutil

from repro.__main__ import main
from repro.core.experiment import ExperimentResult
from repro.runner import CacheEntry, ResultCache
from repro.runner.cache_cli import TMP_GRACE_S, scan

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


def _entry(key):
    r = ExperimentResult(
        exp_id="figX", title="t", xlabel="x", ylabel="y", notes=""
    )
    r.add("XT4", [1, 2], [1.0, 2.0])
    return CacheEntry(
        key=key, exp_id="figX", wall_s=0.1, passed=True, result=r
    )


def _age(path, seconds):
    """Backdate ``path``'s access and modification times by ``seconds``."""
    st = path.stat()
    os.utime(path, (st.st_atime - seconds, st.st_mtime - seconds))


def _seeded_cache(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(_entry(KEY_A))
    cache.put(_entry(KEY_B))
    return cache


def test_clean_store_scans_clean(tmp_path):
    report = scan(_seeded_cache(tmp_path))
    assert report.scanned == 2 and report.ok == 2
    assert report.problems == []


def test_scan_classifies_corrupt_misplaced_and_tmp(tmp_path):
    cache = _seeded_cache(tmp_path)
    good = cache.path_for(KEY_A)
    corrupt = good.parent / ("cc" + "0" * 62 + ".json")
    corrupt.write_bytes(b"{torn")
    misplaced = good.parent / ("dd" + "0" * 62 + ".json")
    shutil.copy(good, misplaced)  # valid entry, wrong address
    abandoned = good.parent / ".tmp-dead.json"
    abandoned.write_text("{}")
    _age(abandoned, 2 * TMP_GRACE_S)  # a killed writer's, long untouched
    report = scan(cache)
    assert report.ok == 2
    assert [p.name for p in report.corrupt] == [corrupt.name]
    assert [p.name for p in report.misplaced] == [misplaced.name]
    assert [p.name for p in report.tmp] == [abandoned.name]
    # Nothing deleted without the flag...
    assert corrupt.is_file() and misplaced.is_file() and abandoned.is_file()
    # ...and a delete pass removes exactly the debris.
    report = scan(cache, delete=True)
    assert report.deleted == 3
    assert not corrupt.exists() and not misplaced.exists()
    assert not abandoned.exists()
    assert cache.get(KEY_A) is not None and cache.get(KEY_B) is not None


def test_delete_spares_an_in_flight_temp_file(tmp_path, capsys):
    """A fresh ``.tmp-*`` file is a live ``put`` between ``mkstemp`` and
    ``os.replace``: ``verify --delete`` neither lists nor deletes it.
    Once it has been untouched for ``TMP_GRACE_S`` it is abandoned and
    goes."""
    cache = _seeded_cache(tmp_path)
    fanout = cache.path_for(KEY_A).parent
    live = fanout / ".tmp-live.json"
    dead = fanout / ".tmp-dead.json"
    live.write_text("{")
    dead.write_text("{")
    _age(dead, TMP_GRACE_S + 1.0)
    assert main(["cache", "verify", "--delete", "--cache-dir", str(cache.root)]) == 0
    out = capsys.readouterr().out
    assert f"tmp: {dead.relative_to(cache.root)}" in out
    assert ".tmp-live" not in out
    assert live.is_file() and not dead.exists()
    assert main(["cache", "verify", "--cache-dir", str(cache.root)]) == 0


def test_cli_verify_exit_codes(tmp_path, capsys):
    cache = _seeded_cache(tmp_path)
    assert main(["cache", "verify", "--cache-dir", str(cache.root)]) == 0
    cache.path_for(KEY_A).write_bytes(b"garbage")
    assert main(["cache", "verify", "--cache-dir", str(cache.root)]) == 1
    assert "corrupt" in capsys.readouterr().out
    assert main(["cache", "verify", "--delete", "--cache-dir", str(cache.root)]) == 0
    assert main(["cache", "verify", "--cache-dir", str(cache.root)]) == 0


def test_missing_store_is_empty_not_an_error(tmp_path):
    cache = ResultCache(tmp_path / "nope")
    assert scan(cache).scanned == 0
    assert main(["cache", "verify", "--cache-dir", str(cache.root)]) == 0


def test_retired_stores_are_reclaimed_and_nothing_else(tmp_path, capsys):
    """Whole stores of an earlier schema (``v1`` results, ``race-v<N>``
    certificates) are never read again: ``verify`` lists them as stale
    and ``verify --delete`` removes them. Only top-level directories
    with exactly those names qualify."""
    cache = _seeded_cache(tmp_path)
    root = cache.root
    retired = [root / "v1" / "aa" / "x.json", root / "race-v2" / "bb" / "y.json"]
    kept = [
        root / name / "aa" / "z.json"
        for name in ("v1x", "race", "version", "xv1", "notes", "race-v")
    ] + [root / "z.json"]
    for path in retired + kept:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{}")

    assert main(["cache", "verify", "--cache-dir", str(root)]) == 1
    assert "stale: v1/aa/x.json" in capsys.readouterr().out
    assert main(["cache", "verify", "--delete", "--cache-dir", str(root)]) == 0
    assert not any(p.exists() for p in retired)
    # The emptied stores go with their files; the cache root stays.
    assert not (root / "v1").exists() and not (root / "race-v2").exists()
    assert all(p.exists() for p in kept)
    assert cache.get(KEY_A) is not None and cache.get(KEY_B) is not None
    assert main(["cache", "verify", "--cache-dir", str(root)]) == 0
