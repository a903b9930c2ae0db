"""The fleet query router: locality first, occupancy second, typed spill.

Every admitted request is *placed* on one replica.  The decision is a
three-step ladder, and the step that decided is recorded on the
returned :class:`RouteDecision` (and the ``fleet_routes_total{reason=}``
counter), so routing behaviour is measurable, not folkloric:

1. **locality** — the query's table has a home replica (its table name
   hashes onto one ToR, :meth:`~repro.fleet.topology.FabricTopology.
   home_tor`), and the replica bound to that ToR is active and below
   the saturation threshold: route there.
2. **spillover** — the home replica is active but saturated: route to
   the least-occupied active replica.  Typed and evented
   (``fleet-spillover``), because spillover trades placement for
   queueing headroom and operators need to see how often that trade
   happens.
3. **least-loaded** — the table has no active home at all (its ToR has
   no replica, or the home is draining or mid-update): plain
   least-occupancy placement.

With no active replica at all the router raises the serving layer's
typed :class:`~repro.errors.Overloaded` with reason
``"no-active-replica"`` — indistinguishable in kind from any other
shed, so clients need exactly one error path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import ConfigurationError, Overloaded
from .replica import Replica
from .topology import FabricTopology

#: Stable route-reason tags (counter labels and RouteDecision.reason).
REASONS = ("locality", "spillover", "least-loaded")


@dataclass(frozen=True)
class RouteDecision:
    """Why a request landed on the replica it landed on."""

    replica: str
    reason: str
    table: str


class QueryRouter:
    """Places queries on fleet replicas by locality and occupancy."""

    def __init__(
        self,
        replicas: Sequence[Replica],
        topology: FabricTopology,
        saturation: int = 16,
        registry=None,
        events=None,
    ) -> None:
        """Bind the replica set, the fabric, and the saturation threshold.

        ``saturation`` is the occupancy (queued + executing) above which
        a home replica is considered full and the router spills.
        """
        if not replicas:
            raise ConfigurationError("the router needs at least one replica")
        if saturation < 1:
            raise ConfigurationError(
                f"saturation must be >= 1, got {saturation}"
            )
        names = [replica.name for replica in replicas]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate replica names: {names}")
        self.replicas = list(replicas)
        self.topology = topology
        self.saturation = saturation
        self.registry = registry
        self.events = events
        self._lock = threading.Lock()
        self.decisions: Dict[str, int] = {reason: 0 for reason in REASONS}
        # Fixed-label counters are created on the constructing thread
        # (the registry's family dict is never mutated concurrently),
        # matching the serving layer's convention.
        self._route_counters: Dict[str, object] = {}
        if registry is not None:
            for reason in REASONS + ("no-active-replica",):
                self._route_counters[reason] = registry.counter(
                    "fleet_routes_total",
                    "Routing decisions, by deciding reason.",
                    reason=reason,
                )
        self._by_tor: Dict[str, List[Replica]] = {}
        for replica in self.replicas:
            self._by_tor.setdefault(replica.tor.name, []).append(replica)

    def home_replicas(self, table_name: str) -> List[Replica]:
        """The replicas bound to the table's home ToR (possibly empty)."""
        home = self.topology.home_tor(table_name)
        return self._by_tor.get(home.name, [])

    def route(self, query, tenant: str = "default") -> "tuple[Replica, RouteDecision]":
        """Choose the replica for ``query``; raises Overloaded if none.

        Returns ``(replica, decision)``; the decision's ``reason`` is
        one of :data:`REASONS`.
        """
        table = query.operator.table
        candidates = [replica for replica in self.replicas if replica.active]
        if not candidates:
            self._count("no-active-replica")
            raise Overloaded(
                f"no active replica to place {query.describe()} on "
                f"(fleet draining or mid-update)",
                "no-active-replica",
            )
        home = [
            replica
            for replica in self.home_replicas(table)
            if replica.active
        ]
        for replica in home:
            if replica.occupancy < self.saturation:
                decision = RouteDecision(
                    replica=replica.name, reason="locality", table=table
                )
                self._count("locality")
                return replica, decision
        fallback = min(candidates, key=lambda replica: replica.occupancy)
        if home:
            # A home existed but was saturated: typed spillover.
            decision = RouteDecision(
                replica=fallback.name, reason="spillover", table=table
            )
            self._count("spillover")
            if self.events is not None:
                self.events.emit(
                    "fleet-spillover",
                    f"table {table!r} spilled from saturated home "
                    f"{home[0].name!r} to {fallback.name!r}",
                    source="fleet",
                    severity="warning",
                    tenant=tenant,
                    table=table,
                    origin=home[0].name,
                    target=fallback.name,
                )
            return fallback, decision
        decision = RouteDecision(
            replica=fallback.name, reason="least-loaded", table=table
        )
        self._count("least-loaded")
        return fallback, decision

    def _count(self, reason: str) -> None:
        """Tally one routing decision (thread-safe)."""
        with self._lock:
            self.decisions[reason] = self.decisions.get(reason, 0) + 1
            counter = self._route_counters.get(reason)
            if counter is not None:
                counter.inc()

    def stats(self) -> Dict[str, int]:
        """Point-in-time decision tallies by reason."""
        with self._lock:
            return dict(self.decisions)
