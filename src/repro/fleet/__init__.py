"""repro.fleet — multi-tenant fleet serving over a multi-switch fabric.

Scales :mod:`repro.serve` from one :class:`~repro.serve.server.
QueryService` fronting one logical switch to a replicated, multi-tenant
fleet over a declared ToR→spine fabric:

* :mod:`repro.fleet.topology` — the two-tier fabric
  (:class:`FabricTopology`, :class:`SwitchSpec`) with per-switch
  resource budgets and deterministic table→ToR homing;
* :mod:`repro.fleet.tenancy` — per-tenant admission quotas
  (:class:`TenantQuota`) and weighted-fair slot formation
  (:class:`WeightedFairPolicy`) with a starvation watchdog;
* :mod:`repro.fleet.replica` — the unit of replication
  (:class:`Replica`): one serving stack bound to one ToR, sharing the
  fleet result cache;
* :mod:`repro.fleet.router` — locality-then-occupancy placement
  (:class:`QueryRouter`, :class:`RouteDecision`) with typed spillover;
* :mod:`repro.fleet.controller` — :class:`FleetController`, the front
  door: submit/query, rolling no-full-drain table updates, and the
  merged fleet report.

The fleet speaks the serving layer's protocol end to end: requests are
tickets, sheds are typed :class:`~repro.errors.Overloaded`, results are
exact, and :class:`~repro.serve.client.ServeClient` works against a
:class:`FleetController` unchanged.
"""

from .controller import FleetController
from .replica import ACTIVE, DRAINING, STATES, UPDATING, Replica
from .router import REASONS, QueryRouter, RouteDecision
from .tenancy import TenantQuota, WeightedFairPolicy
from .topology import FabricTopology, SwitchSpec

__all__ = [
    "ACTIVE",
    "DRAINING",
    "FabricTopology",
    "FleetController",
    "QueryRouter",
    "REASONS",
    "Replica",
    "RouteDecision",
    "STATES",
    "SwitchSpec",
    "TenantQuota",
    "UPDATING",
    "WeightedFairPolicy",
]
