"""SL901 per-event closure rule: detection, guards, autofix."""

from pathlib import Path

from repro.lint import apply_fixes, lint_file, lint_paths, lint_source
from repro.lint.fixes import FIXABLE_RULES

FIXTURES = Path(__file__).parent / "fixtures"


def _perf_findings(findings):
    return [f for f in findings if f.rule.startswith("SL9")]


def _by_rule(findings):
    out = {}
    for f in _perf_findings(findings):
        out.setdefault(f.rule, []).append(f)
    return out


# -- seeded fixture: the rule fires at its planted line ----------------------

def test_fixture_seeds_every_sl9_rule():
    findings = _by_rule(lint_file(FIXTURES / "bad_perf.py"))
    assert set(findings) == {"SL901"}
    assert [f.line for f in findings["SL901"]] == [18]


def test_sl901_message_names_the_process_function():
    findings = _by_rule(lint_file(FIXTURES / "bad_perf.py"))
    assert "'pump'" in findings["SL901"][0].message


# -- guards: idiomatic hot-path code stays clean ------------------------------

def test_sl901_ignores_inline_key_and_combiner_lambdas():
    src = (
        "def p(items):\n"
        "    items.sort(key=lambda kv: kv[0])\n"
        "    best = max(items, key=lambda kv: kv[1])\n"
        "    yield best\n"
    )
    assert not _perf_findings(lint_source(src, "src/x.py"))


def test_pragma_suppresses_perf_rule():
    src = (
        "def p(self, entries):\n"
        "    for entry in entries:\n"
        "        self.sim.schedule(0.0, lambda: self._tick())  # simlint: ignore[SL901]\n"
        "        yield entry\n"
    )
    assert not _perf_findings(lint_source(src, "src/x.py"))


# -- autofix: SL901 hoists the closure to a bound method ----------------------

def test_sl901_is_fixable():
    assert "SL901" in FIXABLE_RULES


def test_sl901_autofix_hoists_and_converges():
    src = (FIXTURES / "bad_perf.py").read_text()
    findings = lint_file(FIXTURES / "bad_perf.py")
    sl901 = [f for f in findings if f.rule == "SL901"]
    assert len(sl901) == 1 and sl901[0].fix is not None
    fixed, applied = apply_fixes(src, findings)
    assert applied == sl901
    assert "self.sim.schedule(0.0, self._tick)" in fixed
    assert "lambda:" not in fixed
    # convergence: the fixed source no longer reports SL901, and a second
    # round of fixes is a no-op
    refindings = lint_source(fixed, str(FIXTURES / "bad_perf.py"))
    assert not [f for f in refindings if f.rule == "SL901"]
    refixed, reapplied = apply_fixes(fixed, refindings)
    assert refixed == fixed and reapplied == []


def test_sl901_fix_skips_lambdas_with_arguments():
    # `lambda: self.cb(x)` captures state — not mechanically hoistable
    src = (
        "def p(self, entries):\n"
        "    for x in entries:\n"
        "        self.sim.schedule(0.0, lambda: self.cb(x))\n"
        "        yield x\n"
    )
    findings = lint_source(src, "src/x.py")
    sl901 = [f for f in findings if f.rule == "SL901"]
    assert len(sl901) == 1 and sl901[0].fix is None


# -- clean scope: the engine's own hot path carries no SL901 debt -------------

def test_hot_path_packages_are_sl9_clean():
    root = Path(__file__).parents[2]
    findings = lint_paths(
        [
            root / "src" / "repro" / "simengine",
            root / "src" / "repro" / "network",
            root / "src" / "repro" / "mpi",
        ]
    )
    assert not _perf_findings(findings)
