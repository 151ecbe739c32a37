"""Tests for the experiment registry."""

import importlib
import pkgutil

import pytest

import repro.experiments
from repro.core import all_experiments, get_experiment, registry
from repro.core.registry import (
    MANIFEST,
    UnknownExperimentError,
    experiment_title,
    experiment_titles,
    register,
    resolve_ids,
)


PAPER_IDS = {
    "table1", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
    "fig07", "fig08", "fig09", "fig10", "fig11", "fig12_13", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "fig22", "fig23",
}

EXTENSION_IDS = {"ext_multicore", "ext_balance", "ext_resilience"}


def test_every_paper_artifact_is_registered():
    assert set(all_experiments()) == PAPER_IDS | EXTENSION_IDS


def test_get_experiment_returns_callable():
    drv = get_experiment("table1")
    result = drv()
    assert result.exp_id == "table1"


def test_unknown_experiment_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("fig99")


def test_double_registration_rejected():
    with pytest.raises(ValueError):
        register("table1")(lambda: None)


def test_manifest_equals_what_the_drivers_register():
    # Import every module of the package, so a driver missing from the
    # manifest (or filed under the wrong module) cannot hide.
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        importlib.import_module(f"repro.experiments.{info.name}")
    registered = {
        exp_id: fn.__module__ for exp_id, fn in registry._REGISTRY.items()
    }
    assert registered == {exp_id: module for exp_id, module, _ in MANIFEST}


def test_every_experiment_has_a_registered_title():
    titles = experiment_titles()
    assert set(titles) == PAPER_IDS | EXTENSION_IDS
    assert all(titles.values()), "drivers registered without a title"


def test_registered_title_matches_driver_result():
    # The manifest's titles exist so `repro list` can skip execution;
    # they must agree with what every driver actually returns.
    for exp_id in all_experiments():
        result = get_experiment(exp_id)()
        assert experiment_title(exp_id) == result.title, exp_id


def test_experiment_title_unknown_id():
    with pytest.raises(UnknownExperimentError, match="known:"):
        experiment_title("fig99")


def test_resolve_ids_defaults_to_all_in_order():
    assert resolve_ids(None) == all_experiments()
    assert resolve_ids([]) == all_experiments()


def test_resolve_ids_returns_registry_order():
    assert resolve_ids(["table1", "fig05", "fig02"]) == [
        "fig02", "fig05", "table1",
    ]


def test_resolve_ids_rejects_unknown():
    with pytest.raises(UnknownExperimentError, match="fig99"):
        resolve_ids(["fig05", "fig99"])
