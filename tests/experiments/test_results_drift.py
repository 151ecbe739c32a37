"""Regenerated artifacts must match the checked-in ``results/`` bytes.

``repro all --out results/`` is the paper artifact's round-trip: both
the CSV and the rendered text report of every experiment are committed,
and regeneration from the current tree must reproduce them exactly. A
drift here means a model change silently rewrote a published figure —
either regenerate ``results/`` on purpose or fix the regression.

Every registered driver is compared, so a change that moves any table or
figure by one byte fails here.
"""

import pathlib

import pytest

from repro.core import all_experiments, get_experiment
from repro.core.report import render_csv, render_result

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


@pytest.mark.parametrize("exp_id", sorted(all_experiments()))
def test_regenerated_artifact_matches_checked_in(exp_id):
    result = get_experiment(exp_id)()
    csv_path = RESULTS / f"{exp_id}.csv"
    txt_path = RESULTS / f"{exp_id}.txt"
    assert csv_path.is_file() and txt_path.is_file()
    assert render_csv(result) == csv_path.read_text(), (
        f"{exp_id}.csv drifted from results/"
    )
    assert render_result(result) == txt_path.read_text(), (
        f"{exp_id}.txt drifted from results/"
    )


def test_checked_in_results_come_in_csv_txt_pairs():
    csvs = {p.stem for p in RESULTS.glob("*.csv")}
    txts = {p.stem for p in RESULTS.glob("*.txt")}
    assert csvs == txts == set(all_experiments())
