"""Suppression edge cases and CLI usage errors."""

from pathlib import Path

from repro.lint import lint_source
from repro.lint.core import expand_paths

FIXTURES = Path(__file__).parent / "fixtures"


# -- pragma precedence and placement -----------------------------------------

def test_family_pragma_suppresses_every_rule_in_family():
    src = "import time\nt = time.time()  # simlint: ignore[nondet]\n"
    assert lint_source(src) == []


def test_rule_pragma_from_another_family_does_not_leak():
    # a perf pragma must not silence a nondet finding on the same line
    src = "import time\nt = time.time()  # simlint: ignore[perf]\n"
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
        "import time\n"
        "\n"
        "\n"
        "def f():\n"
        "    x = max(\n"
        "        time.time(),{pragma_mid}\n"
        "        0.0,\n"
        "    ){pragma_end}\n"
        "    return x\n"
    )
    unsuppressed = base.format(pragma_mid="", pragma_end="")
    assert [f.rule for f in lint_source(unsuppressed)] == ["SL201"]
    # pragma on the closing-paren line, away from the reported line
    closing = base.format(pragma_mid="", pragma_end="  # simlint: ignore[SL201]")
    assert lint_source(closing) == []
    # pragma on the reported argument line works too
    mid = base.format(pragma_mid="  # simlint: ignore[SL201]", pragma_end="")
    assert lint_source(mid) == []


def test_pragma_on_decorator_line():
    src = (
        "import time\n"
        "\n"
        "\n"
        "def stamp(t):\n"
        "    return lambda f: f\n"
        "\n"
        "\n"
        "@stamp(time.time())  # simlint: ignore[SL201]\n"
        "def op():\n"
        "    return 1\n"
    )
    assert lint_source(src) == []
    bare = src.replace("  # simlint: ignore[SL201]", "")
    assert [f.rule for f in lint_source(bare)] == ["SL201"]


def test_ignore_file_pragma_scopes_to_listed_rules():
    src = (
        "# simlint: ignore-file[SL501]\n"
        "import time\n"
        "\n"
        "\n"
        "def f(res):\n"
        "    yield res.request()\n"  # suppressed file-wide
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
    explicit = expand_paths([FIXTURES / "bad_nondet.py"])
    assert len(explicit) == 1


# -- CLI ----------------------------------------------------------------------

def test_cli_explicit_non_python_file_is_usage_error(tmp_path, run_cli):
    target = tmp_path / "notes.txt"
    target.write_text("not python\n")
    out = run_cli(str(target))
    assert out.returncode == 2
    assert "notes.txt" in out.stderr


def test_cli_missing_path_is_usage_error(run_cli):
    out = run_cli("no/such/dir")
    assert out.returncode == 2
