"""The fleet controller: replicas, routing, tenancy, rolling updates.

:class:`FleetController` is the fleet's one front door.  It assembles
the whole stack from a :class:`~repro.fleet.topology.FabricTopology`:

* N :class:`~repro.fleet.replica.Replica` serving stacks, bound
  round-robin onto the fabric's ToR switches (each replica compiles
  against its ToR's resource budget);
* one fleet-shared :class:`~repro.serve.cache.ResultCache` — version
  keying plus the floor-sweep eviction semantics make one cache safe
  under concurrent readers from every replica (see
  :mod:`repro.serve.cache`);
* a :class:`~repro.fleet.router.QueryRouter` placing each request by
  table locality and occupancy, with typed spillover;
* per-tenant :class:`~repro.fleet.tenancy.TenantQuota` admission and a
  per-replica :class:`~repro.fleet.tenancy.WeightedFairPolicy` for
  slot formation;
* one fleet-wide :class:`~repro.obs.events.EventLog` and
  :class:`~repro.obs.registry.MetricsRegistry` (replica services keep
  their own registries; the fleet registry carries routing, retry,
  starvation, and rolling-update signals, and the report merges the
  per-tenant latency histograms bucket-by-bucket).

:meth:`FleetController.rolling_update` is the reason the fleet exists
as a layer: tables are swapped replica-by-replica (stop routing → drain
→ version-fence swap → readmit) so the fleet as a whole keeps serving
through the entire update — the single-service ``update_tables`` fences
correctly on its own; the fleet adds drain-before-swap, so no replica
serves while its tables change and requests go to its siblings instead.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

from ..engine.plan import Query
from ..engine.reference import TableMap
from ..engine.sql import parse
from ..errors import ConfigurationError, Overloaded
from ..obs import EventLog, MetricsRegistry, histogram_quantile
from ..obs.registry import Histogram
from ..serve.admission import Request
from ..serve.cache import ResultCache
from .replica import ACTIVE, DRAINING, UPDATING, Replica
from .router import QueryRouter
from .tenancy import TenantQuota, WeightedFairPolicy
from .topology import FabricTopology


class FleetController:
    """A replicated, multi-tenant Cheetah fleet over a switch fabric.

    Use as a context manager to guarantee the graceful fleet-wide
    drain::

        topology = FabricTopology.two_tier(tors=2, spines=1)
        with FleetController(tables, topology=topology, replicas=2) as fleet:
            client = ServeClient(fleet, tenant="analytics")
            assert client.query("SELECT COUNT(*) FROM T WHERE x > 3") == 7
    """

    def __init__(
        self,
        tables: TableMap,
        topology: Optional[FabricTopology] = None,
        replicas: int = 2,
        *,
        quota: Optional[TenantQuota] = None,
        saturation: int = 16,
        max_queue: int = 64,
        verify: bool = False,
        seed: int = 0,
        default_timeout: Optional[float] = None,
    ) -> None:
        """Assemble replicas, router, tenancy, and shared caches."""
        if replicas < 1:
            raise ConfigurationError(f"need at least one replica, got {replicas}")
        self.topology = topology if topology is not None else FabricTopology.two_tier()
        self.registry = MetricsRegistry()
        self.events = EventLog(1024, registry=self.registry)
        self.results = ResultCache()
        self.quota = quota
        self._tables: Dict[str, object] = dict(tables)
        self.replicas: List[Replica] = []
        tors = self.topology.tors
        for index in range(replicas):
            fairness = WeightedFairPolicy(events=self.events, registry=self.registry)
            self.replicas.append(
                Replica(
                    f"replica-{index}",
                    tors[index % len(tors)],
                    self._tables,
                    results=self.results,
                    quota=self.quota,
                    fairness=fairness,
                    max_queue=max_queue,
                    verify=verify,
                    seed=seed,
                    default_timeout=default_timeout,
                )
            )
        self.router = QueryRouter(
            self.replicas,
            self.topology,
            saturation=saturation,
            registry=self.registry,
            events=self.events,
        )
        self._lock = threading.Lock()
        self._closed = False
        self._update_lock = threading.Lock()
        #: True once a rolling update ran with serving capacity retained
        #: at every step (the "fleet never fully drains" receipt).
        self.last_update_kept_capacity: Optional[bool] = None
        self._reroute_counter = self.registry.counter(
            "fleet_overload_reroutes_total",
            "Requests rerouted to a sibling replica after a typed shed.",
        )
        self._updates_counter = self.registry.counter(
            "fleet_rolling_updates_total", "Completed rolling table updates."
        )
        self.events.emit(
            "lifecycle",
            f"fleet started ({replicas} replicas over "
            f"{len(self.topology.tors)} ToR / "
            f"{len(self.topology.spines)} spine switches)",
            source="fleet",
            replicas=str(replicas),
            switches=str(len(self.topology)),
        )

    # -- client API ----------------------------------------------------------

    def submit(
        self,
        query: Union[str, Query],
        tenant: str = "default",
        timeout: Optional[float] = None,
    ) -> Request:
        """Route and submit; returns the chosen replica's ticket.

        SQL is parsed once here (so routing sees the plan's table); a
        replica that sheds the admitted route is retried once per
        remaining active sibling in occupancy order before the typed
        :class:`~repro.errors.Overloaded` propagates — the fleet-level
        analogue of spillover, counted as
        ``fleet_overload_reroutes_total``.
        """
        if self._closed:
            raise Overloaded(
                "fleet is shutting down and admits no new requests",
                "shutting-down",
            )
        plan = parse(query) if isinstance(query, str) else query
        replica, _decision = self.router.route(plan, tenant=tenant)
        try:
            return replica.service.submit(plan, tenant=tenant, timeout=timeout)
        except Overloaded:
            siblings = sorted(
                (
                    other
                    for other in self.replicas
                    if other is not replica and other.active
                ),
                key=lambda other: other.occupancy,
            )
            for sibling in siblings:
                try:
                    ticket = sibling.service.submit(
                        plan, tenant=tenant, timeout=timeout
                    )
                except Overloaded:
                    continue
                self._reroute_counter.inc()
                return ticket
            raise

    def query(
        self,
        query: Union[str, Query],
        tenant: str = "default",
        timeout: Optional[float] = None,
    ) -> object:
        """Submit and block for the exact output (or the typed error)."""
        return self.submit(query, tenant=tenant, timeout=timeout).result()

    # -- rolling updates -----------------------------------------------------

    def rolling_update(
        self,
        tables: Optional[TableMap] = None,
        drain_timeout: float = 30.0,
    ) -> int:
        """Swap/refresh the fleet's tables one replica at a time.

        Per replica: routing stops (``DRAINING``), its backlog and
        inflight slots finish, the table version fences and residency
        swaps (``UPDATING``), then it readmits (``ACTIVE``) — and only
        then does the next replica start draining, so with two or more
        replicas the fleet is never without serving capacity.  After the
        last replica crosses, the shared result cache is swept at the
        fleet-wide minimum live version (see
        :meth:`~repro.serve.cache.ResultCache.evict_stale`).

        Returns the new table version.  Concurrent updates serialize on
        an internal lock; each step emits a ``rolling-update`` event.
        """
        with self._update_lock:
            if tables is not None:
                new_tables = dict(tables)
            else:
                new_tables = None
            kept_capacity = True
            version = 0
            for replica in self.replicas:
                others_active = any(
                    other.active
                    for other in self.replicas
                    if other is not replica
                )
                if not others_active and len(self.replicas) > 1:
                    kept_capacity = False
                replica.state = DRAINING
                self.events.emit(
                    "rolling-update",
                    f"{replica.name} draining for table update "
                    f"(siblings active: {others_active})",
                    source="fleet",
                    replica=replica.name,
                    phase="drain",
                )
                drained = replica.drain(timeout=drain_timeout)
                if not drained:
                    kept_capacity = False
                replica.state = UPDATING
                self.events.emit(
                    "rolling-update",
                    f"{replica.name} fencing and swapping tables",
                    source="fleet",
                    replica=replica.name,
                    phase="swap",
                )
                version = replica.update_tables(new_tables)
                replica.state = ACTIVE
                self.events.emit(
                    "rolling-update",
                    f"{replica.name} readmitted at table version {version}",
                    source="fleet",
                    replica=replica.name,
                    phase="readmit",
                )
            if new_tables is not None:
                self._tables = new_tables
            floor = min(replica.tables_version for replica in self.replicas)
            swept = self.results.evict_stale(floor)
            self.last_update_kept_capacity = kept_capacity
            self._updates_counter.inc()
            self.events.emit(
                "rolling-update",
                f"rolling update complete at version {version} "
                f"({swept} stale cache entries swept, "
                f"capacity retained: {kept_capacity})",
                source="fleet",
                replica="fleet",
                phase="complete",
                version=str(version),
                swept=str(swept),
            )
            return version

    @property
    def tables(self) -> TableMap:
        """The currently served table map (treat as read-only)."""
        return self._tables

    @property
    def occupancy(self) -> int:
        """Queued plus executing requests across every replica."""
        return sum(replica.occupancy for replica in self.replicas)

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, drain: bool = True) -> None:
        """Shut every replica down (graceful by default).  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for replica in self.replicas:
            replica.shutdown(drain=drain)
        self.events.emit(
            "lifecycle",
            f"fleet shut down ({'drained' if drain else 'shed backlog'})",
            source="fleet",
            drain=str(drain).lower(),
        )

    def __enter__(self) -> "FleetController":
        """Context-manager entry (the fleet is already serving)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Graceful fleet-wide drain on exit."""
        self.shutdown(drain=True)

    # -- reporting -----------------------------------------------------------

    def _merged_latency(self) -> Dict[str, dict]:
        """Fleet-wide per-tenant latency: histograms merged bucket-wise.

        Quantiles of a merged histogram are well-defined; merging
        per-replica quantiles is not — so the replicas hand over their
        raw histograms and the fleet sums counts before taking p50/p99.
        """
        merged: Dict[str, Histogram] = {}
        for replica in self.replicas:
            for tenant, sample in replica.service.latency_histograms().items():
                target = merged.get(tenant)
                if target is None:
                    target = Histogram({"tenant": tenant}, sample.buckets)
                    merged[tenant] = target
                if target.buckets != sample.buckets:  # pragma: no cover
                    continue
                for i, count in enumerate(sample.counts):
                    target.counts[i] += count
                target.count += sample.count
                target.sum += sample.sum
        return {
            tenant: {
                "count": sample.count,
                "p50": histogram_quantile(sample, 0.50) * 1000.0,
                "p99": histogram_quantile(sample, 0.99) * 1000.0,
            }
            for tenant, sample in sorted(merged.items())
        }

    def report(self) -> dict:
        """The fleet's JSON-ready report (a bench-style envelope).

        Same ``{"benchmark", "artifact", "metrics"}`` shape the schema
        checker validates, with fleet-wide roll-ups under ``summary``
        (totals summed across replicas, routing decisions, fairness
        snapshots), merged per-tenant latency under ``latency_ms``, one
        entry per replica under ``replicas``, and the fleet event ring
        under ``events``.
        """
        replica_summaries = []
        totals: Dict[str, int] = {
            "requests": 0, "completed": 0, "failed": 0,
            "cache_hits": 0, "cache_misses": 0,
            "slots_packed": 0, "slots_solo": 0, "packed_queries": 0,
            "streamed": 0, "forwarded": 0,
        }
        starvation = 0
        for replica in self.replicas:
            service_summary = replica.service.report()["summary"]
            entry = replica.summary()
            entry["service"] = {key: service_summary[key] for key in totals}
            replica_summaries.append(entry)
            for key in totals:
                totals[key] += service_summary[key]
            fairness = entry.get("fairness")
            if fairness is not None:
                starvation += fairness["starvation_events"]
        streamed = totals["streamed"]
        pruned = streamed - totals["forwarded"]
        summary: Dict[str, object] = dict(totals)
        summary["pruning_rate"] = pruned / streamed if streamed else 0.0
        summary["replicas"] = len(self.replicas)
        summary["switches"] = len(self.topology)
        summary["occupancy"] = self.occupancy
        summary["routes"] = self.router.stats()
        summary["result_cache"] = self.results.stats()
        summary["starvation_events"] = starvation
        summary["tables_versions"] = [
            replica.tables_version for replica in self.replicas
        ]
        if self.last_update_kept_capacity is not None:
            summary["last_update_kept_capacity"] = self.last_update_kept_capacity
        return {
            "benchmark": "fleet",
            "artifact": "fleet-controller",
            "summary": summary,
            "latency_ms": self._merged_latency(),
            "replicas": replica_summaries,
            "metrics": self.registry.to_dict(),
            "events": self.events.snapshot(),
        }

    def export_events(self, path: str) -> int:
        """Write the fleet's structured events to ``path`` as JSONL."""
        return self.events.to_jsonl(path)
