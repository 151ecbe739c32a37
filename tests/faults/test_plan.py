"""FaultPlan: validation, serialization, deterministic MTBF sampling."""

import pytest

from repro.faults import (
    KINDS,
    FaultEvent,
    FaultPlan,
    current_plan,
    install_plan,
    installed_plan,
    uninstall_plan,
)

LINK = ((0, 1, 0), 0, 1)


# -- FaultEvent validation ----------------------------------------------------

def test_event_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(t_s=0.0, kind="gamma_ray", node=0)


def test_event_rejects_negative_time_and_duration():
    with pytest.raises(ValueError, match="negative fault time"):
        FaultEvent(t_s=-1.0, kind="node_crash", node=0)
    with pytest.raises(ValueError, match="negative fault duration"):
        FaultEvent(t_s=0.0, kind="nic_stall", node=0, duration_s=-1.0)


def test_event_requires_the_right_target():
    with pytest.raises(ValueError, match="link_down requires a link"):
        FaultEvent(t_s=0.0, kind="link_down", node=3)
    for kind in ("nic_stall", "mem_throttle", "os_noise", "node_crash"):
        with pytest.raises(ValueError, match=f"{kind} requires a node"):
            FaultEvent(t_s=0.0, kind=kind)


def test_event_slowdown_factor_must_be_a_slowdown():
    with pytest.raises(ValueError, match="factor must be >= 1"):
        FaultEvent(t_s=0.0, kind="mem_throttle", node=0, factor=0.5)
    # A speedup factor on kinds that ignore it is fine.
    FaultEvent(t_s=0.0, kind="node_crash", node=0, factor=0.5)


# -- plan ordering / serialization -------------------------------------------

def test_plan_is_time_sorted_and_sized():
    plan = FaultPlan([
        FaultEvent(t_s=2.0, kind="node_crash", node=1),
        FaultEvent(t_s=0.5, kind="nic_stall", node=0, duration_s=1e-4),
        FaultEvent(t_s=1.0, kind="link_down", link=LINK),
    ])
    assert len(plan) == 3
    assert [e.t_s for e in plan] == [0.5, 1.0, 2.0]


def test_plan_json_roundtrip(tmp_path):
    plan = FaultPlan([
        FaultEvent(t_s=1.0, kind="link_down", link=LINK, duration_s=0.25),
        FaultEvent(t_s=2.0, kind="mem_throttle", node=7, duration_s=1e-3,
                   factor=2.5),
        FaultEvent(t_s=3.0, kind="node_crash", node=4),
    ])
    path = tmp_path / "plan.json"
    plan.save(str(path))
    loaded = FaultPlan.load(str(path))
    assert loaded.events == plan.events
    # Tuples (hashable links) survive the JSON list round-trip.
    assert loaded.events[0].link == LINK


def test_plan_dict_roundtrip_preserves_defaults():
    plan = FaultPlan([FaultEvent(t_s=0.0, kind="node_crash", node=0)])
    d = plan.to_dict()
    assert d["version"] == 1
    assert "duration_s" not in d["events"][0]  # defaults stay out of JSON
    assert FaultPlan.from_dict(d).events == plan.events


# -- sampling -----------------------------------------------------------------

def _sample(**kw):
    base = dict(
        horizon_s=10.0,
        num_nodes=16,
        torus_dims=(4, 2, 2),
        node_mtbf_s=40.0,
        link_mtbf_s=80.0,
        nic_mtbf_s=20.0,
        seed=7,
    )
    base.update(kw)
    return FaultPlan.sample(**base)


def test_sample_is_a_pure_function_of_its_seed():
    assert _sample().events == _sample().events
    assert _sample(seed=8).events != _sample(seed=7).events


def test_sample_respects_horizon_and_targets():
    plan = _sample()
    assert len(plan) > 0
    for ev in plan:
        assert 0.0 <= ev.t_s < 10.0
        assert ev.kind in KINDS
        if ev.kind == "link_down":
            assert ev.link is not None
        else:
            assert 0 <= ev.node < 16


def test_sample_streams_are_independent_per_kind():
    """Enabling an extra fault kind must not perturb the others' draws."""
    without = _sample(nic_mtbf_s=None)
    withal = _sample()
    crashes = lambda p: [e for e in p if e.kind == "node_crash"]
    links = lambda p: [e for e in p if e.kind == "link_down"]
    assert crashes(without) == crashes(withal)
    assert links(without) == links(withal)


def test_sample_validates_inputs():
    with pytest.raises(ValueError, match="horizon_s"):
        FaultPlan.sample(horizon_s=0.0, num_nodes=4, node_mtbf_s=1.0)
    with pytest.raises(ValueError, match="num_nodes"):
        FaultPlan.sample(horizon_s=1.0, num_nodes=0, node_mtbf_s=1.0)
    with pytest.raises(ValueError, match="torus_dims"):
        FaultPlan.sample(horizon_s=1.0, num_nodes=4, link_mtbf_s=1.0)


# -- process-global installation ---------------------------------------------

def test_install_and_uninstall_plan():
    assert current_plan() is None
    plan = FaultPlan([])
    try:
        assert install_plan(plan) is plan
        assert current_plan() is plan
    finally:
        uninstall_plan()
    assert current_plan() is None


def test_installed_plan_context_restores_previous():
    outer = FaultPlan([])
    inner = FaultPlan([FaultEvent(t_s=0.0, kind="node_crash", node=0)])
    with installed_plan(outer):
        with installed_plan(inner):
            assert current_plan() is inner
        assert current_plan() is outer
    assert current_plan() is None
