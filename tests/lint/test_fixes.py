"""Autofix engine: per-rule repairs, convergence, CLI --fix/--write."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.lint import apply_fixes, lint_file, lint_source
from repro.lint.fixes import FIXABLE_RULES

FIXTURES = Path(__file__).parent / "fixtures"


def _fix_source(src, filename="src/x.py"):
    findings = lint_source(src, filename)
    fixed, applied = apply_fixes(src, findings)
    return fixed, applied


# -- per-rule repairs ---------------------------------------------------------

def test_fix_sl101_inserts_yield_from():
    fixed, applied = _fix_source(
        "def p(comm):\n    comm.send(dest=1, tag=0, n_bytes=n)\n    yield 1\n"
    )
    assert "    yield from comm.send(" in fixed
    assert [f.rule for f in applied] == ["SL101"]


def test_fix_sl203_wraps_set_iteration_in_sorted():
    fixed, applied = _fix_source(
        "def p(items):\n    for x in {1, 2}:\n        yield x\n"
    )
    assert "for x in sorted({1, 2}):" in fixed
    assert [f.rule for f in applied] == ["SL203"]


def test_fix_sl501_wraps_hold_in_try_finally():
    src = (
        "def p(res):\n"
        "    yield res.request()\n"
        "    yield Delay(1.0)\n"
        "    res.release()\n"
    )
    fixed, applied = _fix_source(src)
    assert [f.rule for f in applied] == ["SL501"]
    assert "    try:\n" in fixed
    assert "    finally:\n" in fixed
    assert "        res.release()" in fixed


def test_unfixable_rules_carry_no_fix():
    findings = lint_file(FIXTURES / "bad_units.py")
    assert findings and all(f.fix is None for f in findings)
    assert not {f.rule for f in findings} & FIXABLE_RULES


# -- convergence --------------------------------------------------------------

#: One fixture per fixable rule family, together seeding every rule in
#: FIXABLE_RULES with a finding that carries a fix.
CONVERGENCE_FIXTURES = (
    "bad_yieldfrom.py", "bad_nondet.py", "bad_resource.py", "bad_perf.py",
)


def test_fixture_autofixes_converge():
    fixed_rules = set()
    for name in CONVERGENCE_FIXTURES:
        src = (FIXTURES / name).read_text()
        findings = lint_file(FIXTURES / name)
        fixed, applied = apply_fixes(src, findings)
        assert applied, name
        fixed_rules |= {f.rule for f in applied}
        # Overlapping fixes land one round at a time; iterate to the
        # fixed point, which must leave no fixable finding behind.
        for _ in range(5):
            refindings = lint_source(fixed, f"src/{name}")
            fixed, reapplied = apply_fixes(fixed, refindings)
            fixed_rules |= {f.rule for f in reapplied}
            if not reapplied:
                break
        assert not [f for f in refindings if f.fix is not None], name
    assert fixed_rules == FIXABLE_RULES


def test_overlapping_fixes_apply_one_round_at_a_time():
    # two findings repairing the same call can't both land; the engine
    # keeps the first and the next run mops up the rest
    src = "def p(comm):\n    yield comm.send(dest=1, tag=0, n_bytes=n)\n"
    findings = lint_source(src, "src/x.py")
    fixed, applied = apply_fixes(src, findings)
    assert len(applied) >= 1
    assert "yield from comm.send(" in fixed


# -- concurrent-edit guard ----------------------------------------------------

def test_fix_files_refuses_file_changed_since_parse(tmp_path):
    from repro.lint.fixes import fix_files

    target = tmp_path / "bad_yieldfrom.py"
    shutil.copy(FIXTURES / "bad_yieldfrom.py", target)
    source = target.read_text()
    findings = lint_source(source, str(target))
    assert any(f.fix is not None for f in findings)
    # somebody edits the file between the lint parse and --write
    concurrent = source + "\n# concurrent edit\n"
    target.write_text(concurrent)
    diffs, applied, refused = fix_files(
        findings, write=True, expected_sources={str(target): source}
    )
    assert refused == [str(target)]
    assert applied == [] and diffs == {}
    # the concurrent edit is intact, not clobbered with stale-span output
    assert target.read_text() == concurrent


def test_fix_files_without_expected_sources_keeps_writing(tmp_path):
    from repro.lint.fixes import fix_files

    target = tmp_path / "bad_yieldfrom.py"
    shutil.copy(FIXTURES / "bad_yieldfrom.py", target)
    findings = lint_file(target)
    diffs, applied, refused = fix_files(findings, write=True)
    assert applied and refused == []
    assert "yield from" in target.read_text()


def test_cli_fix_write_exits_3_on_concurrent_edit(tmp_path, monkeypatch, capsys):
    from repro.lint import cli

    target = tmp_path / "bad_yieldfrom.py"
    shutil.copy(FIXTURES / "bad_yieldfrom.py", target)
    real_lint_source = cli.lint_source

    def lint_then_edit(source, path):
        # somebody edits the file right after the lint pass read it
        findings = real_lint_source(source, path)
        target.write_text(source + "# concurrent edit\n")
        return findings

    monkeypatch.setattr(cli, "lint_source", lint_then_edit)
    rc = cli.main([str(target), "--fix", "--write"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "changed on disk" in captured.err
    assert target.read_text().endswith("# concurrent edit\n")


# -- CLI ----------------------------------------------------------------------

def _run_cli(*args, cwd=None):
    root = Path(__file__).parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or root,
        env=env,
    )


def test_cli_fix_previews_diff_without_writing(tmp_path):
    target = tmp_path / "bad_yieldfrom.py"
    shutil.copy(FIXTURES / "bad_yieldfrom.py", target)
    before = target.read_text()
    out = _run_cli(str(target), "--fix")
    assert out.returncode == 1
    assert out.stdout.startswith("---")
    assert "+    yield from" in out.stdout
    assert "would fix" in out.stderr
    assert target.read_text() == before


def test_cli_fix_write_applies_and_second_run_is_empty(tmp_path):
    target = tmp_path / "bad_perf.py"
    shutil.copy(FIXTURES / "bad_perf.py", target)
    first = _run_cli(str(target), "--fix", "--write")
    assert "fixed 1 of 1" in first.stderr
    assert first.returncode == 0
    # idempotence: nothing left to fix, empty diff
    second = _run_cli(str(target), "--fix")
    assert second.returncode == 0
    assert "would fix 0 of 0" in second.stderr
    assert "---" not in second.stdout
