"""Profiler overhead benchmarks: profiling must be pay-for-what-you-use.

``Simulator(profile=None)`` — the default — must not pay for the
profiler: its only cost to unprofiled runs is a handful of ``is None``
checks, one per dispatched event and one per scheduling site. The
benchmarks below track both sides of that contract:

* the unprofiled event loop (regression-tracked by pytest-benchmark and
  by ``benchmarks/compare.py``'s ``event_loop_100k`` entry, whose ±20%
  gate against the recorded baseline is the pre-PR-noise assertion);
* the profiled loop, so the profiler's own cost stays visible;
* a direct ratio check that the unprofiled loop is not paying the
  profiled loop's per-event clock reads.
"""

import time

from repro.simengine import Delay, Simulator

_N = 20_000


def _event_loop(profile) -> float:
    sim = Simulator(profile=profile)

    def ticker():
        for _ in range(_N):
            yield Delay(1.0)

    sim.spawn(ticker())
    return sim.run()


def test_event_loop_unprofiled(benchmark):
    assert benchmark(lambda: _event_loop(None)) == float(_N)


def test_event_loop_profiled(benchmark):
    assert benchmark(lambda: _event_loop(True)) == float(_N)


def _median_wall(workload, repeats: int = 5) -> float:
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()  # simlint: ignore[SL201] — benchmark harness measures wall time
        workload()
        walls.append(time.perf_counter() - t0)  # simlint: ignore[SL201] — benchmark harness
    return sorted(walls)[len(walls) // 2]


def test_unprofiled_loop_within_noise_of_profiled_floor():
    """The profile=None loop must not pay the profiler's per-event cost.

    The profiled loop adds two clock reads plus attribution dicts per
    event, so the unprofiled loop should be measurably at or below it;
    the generous margin keeps this robust on loaded CI machines while
    still catching an accidentally always-on instrumentation path
    (which would make the two loops run the same code).
    """
    off = _median_wall(lambda: _event_loop(None))
    on = _median_wall(lambda: _event_loop(True))
    assert off <= on * 1.25, (
        f"unprofiled loop ({off*1e3:.1f} ms) slower than profiled "
        f"({on*1e3:.1f} ms) beyond noise — is instrumentation always on?"
    )


def test_unprofiled_simulator_has_no_profiler_state():
    """Structural form of pay-for-what-you-use: no profiler reachable."""
    sim = Simulator()
    assert sim.prof is None
    assert sim._queue.prof is None
    handle = sim.schedule(1.0, lambda: None)
    assert handle.label is None


def test_profiled_driver_bench_records_phase_breakdown():
    """Driver benches must record a non-empty engine-phase breakdown.

    The fig17–19 POP drivers are purely analytic, so their profiled runs
    used to store empty ``phases`` dicts in BENCH_simulator.json — which
    made ``compare.py --phase-tolerance`` vacuously green for them. The
    ``bench.host`` phase (driver-side wall time outside the engine)
    guarantees every benchmark records where its time went.
    """
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    try:
        from compare import BENCHMARKS, _profile_phases
    finally:
        sys.path.pop(0)
    benches = dict(BENCHMARKS)
    for name in ("driver_fig17_pop", "des_pingpong_1000"):
        phases = _profile_phases(benches[name])
        assert phases, f"{name}: empty phase breakdown"
        assert "bench.host" in phases
        assert all(v >= 0 for v in phases.values())
    # An engine-bound bench must still attribute real engine phases.
    engine_phases = _profile_phases(benches["des_pingpong_1000"])
    assert any(k.startswith("proc.") for k in engine_phases)
