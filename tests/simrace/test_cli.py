"""`repro race` CLI: exit codes, formats, cache flags, SARIF rendering."""

import json
import subprocess
import sys
from pathlib import Path

from repro.simrace.certify import Certificate
from repro.simrace.formats import render_certificates

REPO = Path(__file__).resolve().parents[2]


def _run(*args, module="repro.simrace"):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_list_prints_ids_and_exits_zero(tmp_path):
    proc = _run("--list")
    assert proc.returncode == 0
    assert "fig08" in proc.stdout and "table1" in proc.stdout


def test_unknown_experiment_exits_2():
    proc = _run("not_a_fig")
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stdout


def test_k_below_one_exits_2():
    proc = _run("fig08", "-k", "0")
    assert proc.returncode == 2
    assert "-k must be >= 1" in proc.stderr


def test_certify_one_driver_text(tmp_path):
    proc = _run("fig08", "-k", "2", "--cache-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "[invariant] fig08" in proc.stdout
    assert "1 schedule-invariant, 0 divergent" in proc.stdout
    # Second run serves from the certificate cache.
    again = _run("fig08", "-k", "2", "--cache-dir", str(tmp_path))
    assert again.returncode == 0
    assert "cached" in again.stderr


def test_json_output_file(tmp_path):
    out = tmp_path / "race.json"
    proc = _run("fig08", "-k", "1", "--no-cache", "-o", str(out),
                "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    (cert,) = doc["certificates"]
    assert cert["exp_id"] == "fig08"
    assert cert["schedule_invariant"] is True
    assert len(cert["seeds"]) == 1


def test_main_cli_race_passthrough(tmp_path):
    proc = _run("race", "fig08", "-k", "1", "--no-cache", module="repro")
    assert proc.returncode == 0, proc.stderr
    assert "[invariant] fig08" in proc.stdout
    bad = _run("race", "nope", module="repro")
    assert bad.returncode == 2


# -- SARIF rendering (divergent certs become SL850 findings) ------------------

def _divergent_cert():
    return Certificate(
        exp_id="fig08",
        title="t",
        schedule_invariant=False,
        k=4,
        base_seed=1,
        seeds=[9, 8, 7, 6],
        divergence={
            "seed": 9,
            "path": "$.result.series[0].y[1]",
            "baseline": "1.0",
            "permuted": "2.0",
        },
    )


def test_sarif_reports_divergent_drivers_as_sl850():
    doc = json.loads(render_certificates([_divergent_cert()], "sarif"))
    (run,) = doc["runs"]
    (result,) = run["results"]
    assert result["ruleId"] == "SL850"
    assert "not schedule-invariant" in result["message"]["text"]
    assert "seed 9" in result["message"]["text"]
    rules = {
        r["id"] for r in run["tool"]["driver"]["rules"]
    }
    assert "SL850" in rules


def test_sarif_declares_sl850_with_its_description():
    from repro.simrace.formats import SL850

    cert = Certificate(
        exp_id="fig08", title="t", schedule_invariant=True,
        k=4, base_seed=1, seeds=[1, 2, 3, 4],
    )
    for certs in ([cert], [_divergent_cert()]):
        doc = json.loads(render_certificates(certs, "sarif"))
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["SL850"]
        assert rules[0]["shortDescription"]["text"] == SL850
        assert "tie-break permutation" in SL850


def test_sarif_is_empty_for_invariant_certs():
    cert = Certificate(
        exp_id="fig08", title="t", schedule_invariant=True,
        k=4, base_seed=1, seeds=[1, 2, 3, 4],
    )
    doc = json.loads(render_certificates([cert], "sarif"))
    assert doc["runs"][0]["results"] == []


def test_text_rendering_shows_divergence_details():
    text = render_certificates([_divergent_cert()], "text")
    assert "DIVERGES" in text
    assert "$.result.series[0].y[1]" in text
    assert "baseline: 1.0" in text
    assert "0 schedule-invariant, 1 divergent" in text
