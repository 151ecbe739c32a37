"""Suppression edge cases and CLI behaviours."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_source
from repro.lint.core import expand_paths

FIXTURES = Path(__file__).parent / "fixtures"


# -- pragma precedence and placement -----------------------------------------

def test_family_pragma_suppresses_every_rule_in_family():
    src = "import time\nt = time.time()  # simlint: ignore[nondet]\n"
    assert lint_source(src) == []


def test_rule_pragma_from_another_family_does_not_leak():
    # a units pragma must not silence a nondet finding on the same line
    src = "import time\nt = time.time()  # simlint: ignore[units]\n"
    assert [f.rule for f in lint_source(src)] == ["SL201"]


def test_pragma_with_trailing_prose_still_suppresses():
    src = (
        "import time\n"
        "t = time.time()  # simlint: ignore[SL201] — wall clock is fine in "
        "this report-only helper\n"
    )
    assert lint_source(src) == []


def test_pragma_on_any_line_of_a_multiline_statement():
    base = (
        "def f(machine):\n"
        "    x = machine.compute(\n"
        "        latency_us=3.0,{pragma_mid}\n"
        "    ){pragma_end}\n"
        "    return x\n"
    )
    unsuppressed = base.format(pragma_mid="", pragma_end="")
    assert [f.rule for f in lint_source(unsuppressed)] == ["SL303"]
    # pragma on the closing-paren line, far from the reported line
    closing = base.format(pragma_mid="", pragma_end="  # simlint: ignore[SL303]")
    assert lint_source(closing) == []
    # pragma on an argument line works too
    mid = base.format(pragma_mid="  # simlint: ignore[SL303]", pragma_end="")
    assert lint_source(mid) == []


def test_pragma_on_decorator_line():
    src = (
        "def retry(timeout_s):\n"
        "    return lambda f: f\n"
        "\n"
        "\n"
        "@retry(timeout_s=5.0)  # simlint: ignore[SL303]\n"
        "def op():\n"
        "    return 1\n"
    )
    assert lint_source(src) == []
    bare = src.replace("  # simlint: ignore[SL303]", "")
    assert [f.rule for f in lint_source(bare)] == ["SL303"]


def test_ignore_file_pragma_scopes_to_listed_rules():
    src = (
        "# simlint: ignore-file[SL303]\n"
        "import time\n"
        "\n"
        "\n"
        "def f(net):\n"
        "    net.send(latency_us=3.0)\n"  # suppressed file-wide
        "    return time.time()\n"  # SL201 still fires
    )
    assert [f.rule for f in lint_source(src)] == ["SL201"]


def test_bare_ignore_file_pragma_suppresses_everything():
    src = (
        "# simlint: ignore-file\n"
        "import time\n"
        "t = time.time()\n"
    )
    assert lint_source(src) == []


# -- path expansion -----------------------------------------------------------

def test_expand_paths_excludes_fixture_dirs_by_default():
    files = expand_paths([Path(__file__).parent])
    assert not any("fixtures" in Path(f).parts for f in files)
    # explicit fixture files always lint
    explicit = expand_paths([FIXTURES / "bad_units.py"])
    assert len(explicit) == 1


# -- CLI ----------------------------------------------------------------------

def _run_cli(*args, module="repro.lint"):
    root = Path(__file__).parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )


def test_cli_select_parse_family_is_known():
    # regression: `--select parse` used to exit 2 because the framework
    # family was missing from the known-selector set
    out = _run_cli(str(FIXTURES / "bad_nondet.py"), "--select", "parse")
    assert out.returncode == 0, out.stderr
    assert "unknown rule/family" not in out.stderr


def test_cli_select_mixes_family_and_foreign_rule_id():
    out = _run_cli(str(FIXTURES / "bad_nondet.py"), "--select",
                   "yield-from,SL203")
    assert out.returncode == 1
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    assert lines and all("SL203" in l for l in lines)


def test_cli_explicit_non_python_file_is_usage_error(tmp_path):
    target = tmp_path / "notes.txt"
    target.write_text("not python\n")
    out = _run_cli(str(target))
    assert out.returncode == 2
    assert "notes.txt" in out.stderr


def test_cli_missing_path_is_usage_error():
    out = _run_cli("no/such/dir")
    assert out.returncode == 2


def test_cli_format_json_is_parseable():
    out = _run_cli(str(FIXTURES / "bad_nondet.py"), "--format", "json")
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    assert len(doc) == 6
    assert {"rule", "family", "path", "line", "col", "message"} <= set(doc[0])


def test_cli_format_sarif_is_valid_with_one_result_per_finding():
    out = _run_cli(str(FIXTURES / "bad_nondet.py"), "--format", "sarif")
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert len(run["results"]) == 6
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"SL101", "SL303", "SL901"} <= rule_ids
    first = run["results"][0]
    assert first["locations"][0]["physicalLocation"]["region"]["startLine"]
    assert {r["level"] for r in run["results"]} == {"error"}
    assert not any("properties" in r for r in run["results"])


def test_cli_output_file(tmp_path):
    target = tmp_path / "lint.sarif"
    out = _run_cli(str(FIXTURES / "bad_nondet.py"), "--format", "sarif",
                   "-o", str(target))
    assert out.returncode == 1
    doc = json.loads(target.read_text())
    assert doc["runs"][0]["results"]
    # the rendering is byte-stable: a second run writes the same bytes
    again = _run_cli(str(FIXTURES / "bad_nondet.py"), "--format", "sarif")
    assert again.stdout == target.read_text()


def test_repro_lint_subcommand_delegates():
    out = _run_cli("lint", str(FIXTURES / "bad_nondet.py"), module="repro")
    assert out.returncode == 1
    assert "SL201" in out.stdout
    clean = _run_cli("lint", "src/repro/lint", module="repro")
    assert clean.returncode == 0, clean.stdout + clean.stderr
