"""simlint behaviour: each checker catches its fixture, pragmas suppress."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(name):
    return lint_file(FIXTURES / name)


def by_rule(findings):
    out = {}
    for f in findings:
        out.setdefault(f.rule, []).append(f)
    return out


# -- checker 1: yield-from discipline ---------------------------------------

def test_yieldfrom_fixture_rules_and_lines():
    rules = by_rule(findings_for("bad_yieldfrom.py"))
    assert [f.line for f in rules["SL101"]] == [7, 11]
    assert [f.line for f in rules["SL102"]] == [8]
    assert [f.line for f in rules["SL103"]] == [9]
    assert [f.line for f in rules["SL104"]] == [10]
    # the three suppressed recv assignments (13–15) and the clean lines
    # produce nothing else
    assert sum(len(v) for v in rules.values()) == 5
    assert all(f.family == "yield-from" for v in rules.values() for f in v)


def test_yieldfrom_ignores_non_generators_and_stdlib_lookalikes():
    findings = findings_for("bad_yieldfrom.py")
    flagged_lines = {f.line for f in findings}
    # line.split / d.get in false_positive_guards stay silent
    assert not flagged_lines & {26, 27}


# -- checker 2: nondeterminism ----------------------------------------------

def test_nondet_fixture_rules_and_lines():
    rules = by_rule(findings_for("bad_nondet.py"))
    assert [f.line for f in rules["SL201"]] == [11, 12]
    assert [f.line for f in rules["SL202"]] == [13, 14]
    assert [f.line for f in rules["SL203"]] == [15, 16]
    assert sum(len(v) for v in rules.values()) == 6


# -- checker 3: resource safety ----------------------------------------------

def test_resource_safety_fixture_rules_and_lines():
    rules = by_rule(findings_for("bad_resource.py"))
    assert [f.line for f in rules["SL501"]] == [7, 14, 41]
    assert sum(len(v) for v in rules.values()) == 3
    assert all(f.family == "resource-safety" for f in rules["SL501"])


def test_resource_safety_guarded_and_two_step_forms_stay_silent():
    flagged = {f.line for f in findings_for("bad_resource.py")}
    # safe_hold (21), safe_nested (31), suppressed (48), two-step (57+)
    assert not flagged & {21, 31, 48}
    assert max(flagged) == 41


# -- pragmas -------------------------------------------------------------------

@pytest.mark.parametrize(
    "pragma",
    ["# simlint: ignore[SL201]", "# simlint: ignore[nondet]", "# simlint: ignore"],
)
def test_pragma_forms_suppress(pragma):
    src = f"import time\nt = time.time()  {pragma}\n"
    assert lint_source(src) == []


def test_pragma_for_other_rule_does_not_suppress():
    src = "import time\nt = time.time()  # simlint: ignore[SL501]\n"
    findings = lint_source(src)
    assert [f.rule for f in findings] == ["SL201"]


# -- framework / CLI -----------------------------------------------------------

def test_syntax_error_becomes_parse_finding():
    findings = lint_source("def broken(:\n", "x.py")
    assert [f.rule for f in findings] == ["SL001"]


def test_finding_str_is_location_prefixed():
    f = findings_for("bad_nondet.py")[0]
    assert str(f).startswith(str(FIXTURES / "bad_nondet.py") + ":11:")
    assert "SL201" in str(f)


def _run_cli(*args):
    root = Path(__file__).parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )


def test_cli_exits_nonzero_on_findings_and_zero_when_clean():
    bad = _run_cli(str(FIXTURES / "bad_nondet.py"))
    assert bad.returncode == 1
    assert "SL201" in bad.stdout and "findings" in bad.stderr
    clean = _run_cli("src/repro/lint")
    assert clean.returncode == 0, clean.stdout + clean.stderr


@pytest.mark.parametrize("option", ["--select", "--fix", "--format", "--list-rules"])
def test_cli_takes_only_paths(option, capsys):
    from repro.lint.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main([option, str(FIXTURES / "bad_nondet.py")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
