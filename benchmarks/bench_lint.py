"""simlint: cold whole-program analysis vs warm cache-served re-run.

The lint cache stores per-module summaries keyed on content and findings
keyed on content plus import closure, so a warm ``repro-lint src/``
re-parses nothing. These benchmarks put a number on that gap and assert
the zero-parse invariant the CI lint job relies on.
"""
# Host wall-clock reads are the measurement here, not simulation state.
# simlint: ignore-file[SL201]

import statistics
import time

import pytest

from repro.lint import LintCache, Program
from repro.lint.core import expand_paths

SCOPE = ["src/repro/lint", "src/repro/simengine", "src/repro/mpi"]


@pytest.fixture(scope="module")
def lint_files():
    return expand_paths(SCOPE)


def test_lint_cold(benchmark, lint_files, tmp_path):
    def cold():
        # a fresh cache directory every round: always misses
        cold.n += 1
        cache = LintCache(tmp_path / f"cache-{cold.n}")
        program = Program(lint_files, cache=cache)
        program.lint_all()
        return program

    cold.n = 0
    program = benchmark(cold)
    assert program.stats["parsed"] == len(lint_files)
    assert program.stats["findings_hits"] == 0


def test_lint_warm(benchmark, lint_files, tmp_path):
    cache = LintCache(tmp_path / "cache")
    Program(lint_files, cache=cache).lint_all()  # warm it once

    def warm():
        program = Program(lint_files, cache=cache)
        program.lint_all()
        return program

    program = benchmark(warm)
    # the headline invariant: a warm run re-parses zero files
    assert program.stats["parsed"] == 0
    assert program.parsed_paths() == []
    assert program.stats["summary_hits"] == len(lint_files)
    assert program.stats["findings_hits"] == len(lint_files)


def test_warm_cache_serves_sl9_findings_without_parsing(tmp_path):
    # SL901 is interprocedural (process classification) — make sure it
    # keeps the zero-parse warm-run invariant, findings cache round-trip
    # included
    files = expand_paths(SCOPE) + ["tests/lint/fixtures/bad_perf.py"]
    cache = LintCache(tmp_path / "cache")
    cold = Program(files, cache=cache)
    cold_sl9 = [f for f in cold.lint_all() if f.rule.startswith("SL9")]
    assert cold_sl9  # the seeded fixture fires
    warm = Program(files, cache=cache)
    warm_sl9 = [f for f in warm.lint_all() if f.rule.startswith("SL9")]
    assert warm.stats["parsed"] == 0
    assert warm.parsed_paths() == []
    assert warm.stats["findings_hits"] == len(files)
    assert warm_sl9 == cold_sl9
    # the SL901 autofix survives the cache round-trip
    assert any(f.fix is not None for f in warm_sl9)


def test_warm_is_measurably_faster_than_cold(lint_files, tmp_path):
    # direct wall-clock comparison (independent of pytest-benchmark
    # rounds): the warm median must beat the cold median outright
    def run(cache):
        program = Program(lint_files, cache=cache)
        program.lint_all()
        return program

    cold_times = []
    for i in range(3):
        t0 = time.perf_counter()
        run(LintCache(tmp_path / f"cold-{i}"))
        cold_times.append(time.perf_counter() - t0)

    cache = LintCache(tmp_path / "warm")
    run(cache)  # prime
    warm_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        program = run(cache)
        warm_times.append(time.perf_counter() - t0)
    assert program.stats["parsed"] == 0
    assert statistics.median(warm_times) < statistics.median(cold_times)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "--benchmark-only", "-q"])
