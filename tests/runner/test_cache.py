"""The content-addressed result store: round-trips, misses, corruption."""

import json

from repro.core.experiment import ExperimentResult
from repro.core.report import render_csv, render_result
from repro.runner import CacheEntry, ResultCache

KEY = "ab" + "0" * 62


def _result() -> ExperimentResult:
    r = ExperimentResult(
        exp_id="figX",
        title="A figure",
        xlabel="n",
        ylabel="GB/s",
        notes="calibrated",
    )
    r.add("XT4", [1, 2, 4], [1.5, 2.25, 3.0])
    r.rows = [{"system": "XT4", "peak": 10.4}, {"system": "XT3", "peak": 4.8}]
    return r


def _entry(key=KEY) -> CacheEntry:
    return CacheEntry(
        key=key, exp_id="figX", wall_s=0.25, passed=True, result=_result()
    )


def test_miss_on_empty_cache(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.get(KEY) is None
    assert KEY not in cache
    assert cache.entries() == 0


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "c")
    path = cache.put(_entry())
    assert path.is_file() and path.name == f"{KEY}.json"
    got = cache.get(KEY)
    assert got is not None
    assert got.exp_id == "figX" and got.wall_s == 0.25
    assert got.result.to_dict() == _result().to_dict()
    assert cache.entries() == 1


def test_round_trip_renders_byte_identical(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(_entry())
    got = cache.get(KEY).result
    assert render_csv(got) == render_csv(_result())
    assert render_result(got) == render_result(_result())


def test_row_column_order_survives(tmp_path):
    # Column order of table rows is semantic (it is the CSV header
    # order); a sorted-keys serialization would scramble it.
    cache = ResultCache(tmp_path / "c")
    cache.put(_entry())
    rows = cache.get(KEY).result.rows
    assert list(rows[0]) == ["system", "peak"]


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "c")
    path = cache.put(_entry())
    path.write_text("{ truncated")
    assert cache.get(KEY) is None


def test_schema_incompatible_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "c")
    path = cache.put(_entry())
    data = json.loads(path.read_text())
    del data["result"]
    path.write_text(json.dumps(data))
    assert cache.get(KEY) is None


def test_key_mismatch_is_a_miss(tmp_path):
    # An entry copied under the wrong filename must not be served.
    cache = ResultCache(tmp_path / "c")
    other = "cd" + "0" * 62
    src = cache.put(_entry())
    dst = cache.path_for(other)
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(src.read_text())
    assert cache.get(other) is None


def test_overwrite_replaces_entry(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(_entry())
    fresh = _entry()
    fresh.wall_s = 9.0
    cache.put(fresh)
    assert cache.get(KEY).wall_s == 9.0
    assert cache.entries() == 1


def test_no_temp_files_left_behind(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(_entry())
    leftovers = [
        p for p in (tmp_path / "c").rglob("*") if p.name.startswith(".tmp-")
    ]
    assert leftovers == []
