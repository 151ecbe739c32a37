"""SL901 per-event closure rule: detection and guards."""

from pathlib import Path

from repro.lint import lint_file, lint_source

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
    assert [f.line for f in findings["SL901"]] == [18, 20]


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


def test_sl901_flags_capturing_lambdas():
    src = (
        "def p(self, entries):\n"
        "    for x in entries:\n"
        "        self.sim.schedule(0.0, lambda: self.cb(x))\n"
        "        yield x\n"
    )
    assert [f.rule for f in _perf_findings(lint_source(src, "src/x.py"))] == ["SL901"]
