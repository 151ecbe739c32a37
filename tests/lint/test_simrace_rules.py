"""SL8xx schedule-race rules: detection, autofixes, selection, caching."""

import subprocess
import sys
from pathlib import Path

from repro.lint import apply_fixes, lint_file, lint_source
from repro.lint.core import matching_rules
from repro.lint.fixes import FIXABLE_RULES

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "bad_schedule_race.py"


def sl8(findings):
    out = {}
    for f in findings:
        if f.rule.startswith("SL8"):
            out.setdefault(f.rule, []).append(f)
    return out


# -- detection ---------------------------------------------------------------

def test_fixture_rules_and_lines():
    rules = sl8(lint_file(FIXTURE))
    assert [f.line for f in rules["SL801"]] == [7, 11]
    assert [f.line for f in rules["SL802"]] == [32, 41, 46]
    assert [f.line for f in rules["SL803"]] == [67]
    assert [f.line for f in rules["SL804"]] == [85, 89]
    assert all(f.family == "schedule-race" for v in rules.values() for f in v)


def test_good_patterns_stay_silent():
    # keyed schedule, same-function siblings, a private (function-local)
    # simulator, sorted iteration, a non-scheduling loop body,
    # resource-serialized writers, and a unique RNG stream.
    lines = {f.line for v in sl8(lint_file(FIXTURE)).values() for f in v}
    assert not lines & {15, 20, 21, 26, 52, 57, 73, 74, 75, 77, 78, 79, 93}


def test_sl801_same_function_pushes_are_not_grouped():
    src = (
        "def burst(sim_shared):\n"
        "    SIM.schedule(2.0, 'a')\n"
        "    SIM.schedule(2.0, 'b')\n"
    )
    assert not sl8(lint_source(src, "src/x.py"))


def test_sl801_local_simulator_instances_do_not_race():
    src = (
        "def a():\n    sim = make()\n    sim.schedule(2.0, 'a')\n"
        "def b():\n    sim = make()\n    sim.schedule(2.0, 'b')\n"
    )
    assert not sl8(lint_source(src, "src/x.py"))


def test_sl803_requires_process_methods():
    # Plain (non-generator) methods are not processes: no finding.
    src = (
        "class C:\n"
        "    def a(self):\n        self.x = 1\n"
        "    def b(self):\n        self.x = 2\n"
    )
    assert not sl8(lint_source(src, "src/x.py"))


def test_sl850_is_declared_but_never_fires_statically():
    from repro.simrace.rules import ScheduleRaceChecker

    assert "SL850" in ScheduleRaceChecker.rules
    assert not [
        f for f in lint_file(FIXTURE) if f.rule == "SL850"
    ]


# -- autofixes ----------------------------------------------------------------

def test_fixable_contract_covers_sl801_and_sl802():
    assert {"SL801", "SL802"} <= FIXABLE_RULES
    for f in lint_file(FIXTURE):
        if f.rule in ("SL803", "SL804"):
            assert f.fix is None


def test_fix_sl801_inserts_tie_break_key():
    src = FIXTURE.read_text()
    findings = [f for f in lint_file(FIXTURE) if f.rule == "SL801"]
    fixed, applied = apply_fixes(src, findings)
    assert len(applied) == 2
    assert 'SIM.schedule(5.0, payload, key="arm_timeout:7")' in fixed
    assert 'SIM.schedule(5.0, payload, key="arm_retry:11")' in fixed


def test_fix_sl802_wraps_dict_view_in_sorted():
    src = FIXTURE.read_text()
    findings = [f for f in lint_file(FIXTURE) if f.rule == "SL802"]
    fixed, applied = apply_fixes(src, findings)
    # dict views get the sorted() wrap; the set literal repair is left
    # to SL203's fix so the two never double-wrap.
    assert "for name in sorted(links.keys()):" in fixed
    assert len(applied) == 2


def test_sl8_fixes_converge():
    src = FIXTURE.read_text()
    findings = [f for f in lint_file(FIXTURE) if f.rule in ("SL801", "SL802")]
    fixed, applied = apply_fixes(src, findings)
    assert applied
    refindings = [
        f
        for f in lint_source(fixed, str(FIXTURE))
        if f.rule in ("SL801", "SL802") and f.fix is not None
    ]
    refixed, reapplied = apply_fixes(fixed, refindings)
    assert refixed == fixed or not reapplied


# -- selection: SL8 prefix round-trip ----------------------------------------

def test_matching_rules_expands_prefix():
    got = matching_rules("SL8")
    assert got == {"SL801", "SL802", "SL803", "SL804", "SL850"}
    assert matching_rules("SL80") == {"SL801", "SL802", "SL803", "SL804"}
    assert matching_rules("bogus") == set()
    assert matching_rules("SL9") == {"SL901"}


def _run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_cli_select_sl8_prefix(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(FIXTURE.read_text(), encoding="utf-8")
    proc = _run_cli(str(target), "--select", "SL8", "--no-cache",
                    "--cache-dir", str(tmp_path / "cache"))
    assert proc.returncode == 1
    assert "SL801" in proc.stdout and "SL804" in proc.stdout
    assert "SL501" not in proc.stdout  # non-SL8 families filtered out


def test_cli_select_unknown_prefix_exits_2(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n", encoding="utf-8")
    proc = _run_cli(str(target), "--select", "SL99", "--no-cache")
    assert proc.returncode == 2
    assert "unknown rule/family" in proc.stderr


def test_cli_select_sl8_baseline_ratchet(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(FIXTURE.read_text(), encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    cache = str(tmp_path / "cache")
    first = _run_cli(str(target), "--select", "SL8", "--baseline",
                     str(baseline), "--update-baseline", "--cache-dir", cache)
    assert first.returncode == 0
    # With the debt baselined, a SL8-selected run is clean...
    second = _run_cli(str(target), "--select", "SL8", "--baseline",
                      str(baseline), "--cache-dir", cache)
    assert second.returncode == 0, second.stdout + second.stderr
    # ...and paying the debt makes the baseline entries stale.
    target.write_text("x = 1\n", encoding="utf-8")
    third = _run_cli(str(target), "--select", "SL8", "--baseline",
                     str(baseline), "--cache-dir", cache)
    assert third.returncode == 0
    assert "stale" in third.stderr


def test_sl8_findings_round_trip_through_lint_cache(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(FIXTURE.read_text(), encoding="utf-8")
    cache = str(tmp_path / "cache")
    cold = _run_cli(str(target), "--select", "SL8", "--cache-dir", cache,
                    "--stats")
    warm = _run_cli(str(target), "--select", "SL8", "--cache-dir", cache,
                    "--stats")
    assert cold.returncode == warm.returncode == 1
    assert cold.stdout == warm.stdout
    assert "0 parsed" in warm.stderr
