"""Partition-derived analytic terms, pinned bit for bit.

Every term that depends on the job partition (the sub-torus an n-node
job occupies: its mean hop count, diameter, directed links and
bisection) is pinned here as ``float.hex`` for each XT machine factory
in SN and VN mode, at task counts off the paper's sweep: 1, 2, 3, 7,
100, 1000, 4095 and the machine's maximum. The paper's sweep points are
checked through ``results/``; between them nothing else would show a
change in how a partition is chosen or read. The values in
``partition_pins.json`` were recorded while each of
``CollectiveCostModel.for_machine``, ``NAMDModel``, ``MPIRandomAccessModel``
and the ping-pong and ring helpers still built its own sub-torus.

Regenerate (only for a deliberate model change) with
``PYTHONPATH=src python tests/network/test_partition_pins.py``.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.apps.namd.model import NAMDModel
from repro.hpcc.mpira import MPIRandomAccessModel
from repro.machine.configs import xt3, xt3_dc, xt3_xt4_combined, xt4, xt4_quadcore
from repro.mpi.costmodels import CollectiveCostModel
from repro.network.model import NetworkModel

PINS_PATH = pathlib.Path(__file__).with_name("partition_pins.json")
FACTORIES = {
    "xt3": xt3,
    "xt3_dc": xt3_dc,
    "xt4": xt4,
    "xt3_xt4_combined": xt3_xt4_combined,
    "xt4_quadcore": xt4_quadcore,
}
TASK_COUNTS = (1, 2, 3, 7, 100, 1000, 4095, "max")


def _cases():
    for name in FACTORIES:
        for mode in ("SN", "VN"):
            for ntasks in TASK_COUNTS:
                yield f"{name}/{mode}/{ntasks}"


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def terms(case: str) -> dict:
    """Every partition-derived term of one (machine, mode, task count)."""
    name, mode, count = case.split("/")
    machine = FACTORIES[name](mode)
    ntasks = machine.max_tasks if count == "max" else int(count)
    nodes = -(-ntasks // machine.tasks_per_node)
    net = NetworkModel(machine)
    costs = CollectiveCostModel.for_machine(net, ntasks)
    out = {
        f"costs.{f.name}": _hex(getattr(costs, f.name))
        for f in dataclasses.fields(costs)
        if f.init
    }
    out["namd.latency_s"] = _hex(NAMDModel(machine, ntasks)._latency_s)
    out["mpira.per_task_gups"] = _hex(
        MPIRandomAccessModel(machine, ntasks).per_task_gups()
    )
    for which in ("min", "avg", "max"):
        out[f"pingpong.{which}_us"] = _hex(net.pingpong_latency_us(which, nodes))
    out["ring.natural_us"] = _hex(net.natural_ring_latency_us(nodes))
    out["ring.random_us"] = _hex(net.random_ring_latency_us(nodes))
    out["ring.random_GBs"] = _hex(net.random_ring_bandwidth_GBs(nodes))
    out["bisection_GBs"] = _hex(net.bisection_bw_GBs(nodes))
    return out


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_partition_terms_are_pinned(case):
    assert terms(case) == PINS[case]


if __name__ == "__main__":
    PINS_PATH.write_text(
        json.dumps({case: terms(case) for case in _cases()}, indent=1, sort_keys=True)
        + "\n"
    )
