"""SeaStar / SeaStar2 3D-torus interconnect models.

Two interchangeable fidelities:

* :class:`~repro.network.model.NetworkModel` — closed-form LogGP-style
  end-to-end message costs plus topology-derived contention factors; used
  by the collective cost models and all paper-scale experiments.
* :class:`~repro.network.simnet.SimNetwork` — a discrete-event network in
  which messages acquire NIC injection ports and directed torus links as
  simulation resources; used at small scale and to validate the analytic
  model's contention behaviour.
"""

from repro.network.mapping import Placement
from repro.network.model import NetworkModel
from repro.network.simnet import SimNetwork, hybrid_mode
from repro.network.topology import Torus3D

__all__ = [
    "NetworkModel",
    "Placement",
    "SimNetwork",
    "Torus3D",
    "hybrid_mode",
]
