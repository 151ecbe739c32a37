"""simlint behaviour: each rule catches its fixture, pragmas suppress."""

import inspect
from pathlib import Path

import pytest

from repro.lint import lint_file, lint_source
from repro.lint.rules import CALLBACK_SINKS, GEN_METHODS, GEN_METHODS_HINTED
from repro.mpi.comm import Comm
from repro.network.simnet import SimNetwork
from repro.simengine import Simulator
from repro.simengine.queue import EventQueue

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(name):
    return lint_file(FIXTURES / name)


def by_rule(findings):
    out = {}
    for f in findings:
        out.setdefault(f.rule, []).append(f)
    return out


# -- yield-from discipline ----------------------------------------------------

def test_yieldfrom_fixture_rules_and_lines():
    rules = by_rule(findings_for("bad_yieldfrom.py"))
    assert [f.line for f in rules["SL101"]] == [7, 11]
    # the three suppressed discarded recvs (13–15) and the clean lines
    # produce nothing else
    assert sum(len(v) for v in rules.values()) == 2
    assert all(f.family == "yield-from" for v in rules.values() for f in v)


def test_yieldfrom_ignores_non_generators_and_stdlib_lookalikes():
    findings = findings_for("bad_yieldfrom.py")
    flagged_lines = {f.line for f in findings}
    # line.split / d.get in false_positive_guards stay silent
    assert not flagged_lines & {26, 27}


# -- nondeterminism ------------------------------------------------------------

def test_nondet_fixture_rules_and_lines():
    rules = by_rule(findings_for("bad_nondet.py"))
    assert [f.line for f in rules["SL201"]] == [11, 12]
    assert [f.line for f in rules["SL202"]] == [13, 14]
    assert [f.line for f in rules["SL203"]] == [15, 16]
    assert sum(len(v) for v in rules.values()) == 6


# -- resource safety -----------------------------------------------------------

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


# -- the helper tables name the APIs they mirror ----------------------------------

def test_generator_helper_table_is_comms_generators_plus_transfer():
    comm_gens = {
        name for name, fn in inspect.getmembers(Comm)
        if not name.startswith("_") and inspect.isgeneratorfunction(fn)
    }
    assert inspect.isgeneratorfunction(SimNetwork.transfer)
    assert set(GEN_METHODS) | set(GEN_METHODS_HINTED) == comm_gens | {"transfer"}


def test_callback_sinks_are_the_deferring_engine_methods():
    # A public Simulator/EventQueue method that takes a callback or a
    # process generator runs it later: exactly the SL901 sinks.
    deferring = {
        name
        for cls in (Simulator, EventQueue)
        for name, fn in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
        and {"callback", "gen"} & set(inspect.signature(fn).parameters)
    }
    assert deferring == set(CALLBACK_SINKS)


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


def test_cli_exits_nonzero_on_findings_and_zero_when_clean(run_cli):
    bad = run_cli(str(FIXTURES / "bad_nondet.py"))
    assert bad.returncode == 1
    assert "SL201" in bad.stdout and "findings" in bad.stderr
    clean = run_cli("src/repro/lint")
    assert clean.returncode == 0, clean.stdout + clean.stderr


@pytest.mark.parametrize("option", ["--select", "--fix", "--format", "--list-rules"])
def test_cli_takes_only_paths(option, capsys):
    from repro.lint.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main([option, str(FIXTURES / "bad_nondet.py")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
