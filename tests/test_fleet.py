"""The fleet subsystem: fabric, tenancy, routing, rolling updates.

The contracts under test are the ones ``repro.fleet`` exists to keep:

* a fabric of unknown tiers or empty tiers refuses to construct;
* tables home deterministically onto ToRs, and the router prefers the
  home replica, spilling (typed, evented) when the home is saturated
  and placing least-loaded when it is draining;
* one tenant cannot monopolize a replica — quota sheds are typed
  ``tenant-quota``, weighted-fair slot formation serves a quiet tenant
  within a bounded number of rounds no matter the flood depth, and the
  starvation watchdog fires events when (and only when) a request is
  genuinely passed over beyond the bound;
* N replicas share one result cache safely under concurrent readers
  and version sweeps, and a rolling table update never leaves the
  fleet without serving capacity — while every answer stays equal to
  the reference executor's output.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine.cluster import ClusterConfig
from repro.engine.reference import run_reference
from repro.engine.sql import parse
from repro.engine.table import Table
from repro.errors import ConfigurationError, Overloaded
from repro.fleet import (
    ACTIVE,
    DRAINING,
    FabricTopology,
    FleetController,
    QueryRouter,
    Replica,
    SwitchSpec,
    TenantQuota,
    WeightedFairPolicy,
)
from repro.obs import EventLog, MetricsRegistry
from repro.serve import QueryService, ResultCache, ServeClient
from repro.serve.cache import freeze_result


@pytest.fixture
def fleet_tables():
    """Two tables so the router has distinct homes to resolve."""
    rng = np.random.default_rng(21)
    n = 800
    return {
        "Products": Table(
            "Products",
            {
                "seller": rng.integers(0, 30, n),
                "price": rng.integers(1, 100, n),
            },
        ),
        "Ratings": Table(
            "Ratings",
            {
                "seller": rng.integers(0, 30, n // 2),
                "stars": rng.integers(1, 6, n // 2),
            },
        ),
    }


FLEET_SQL = (
    "SELECT COUNT(*) FROM Products WHERE price > 50",
    "SELECT DISTINCT seller FROM Products",
    "SELECT COUNT(*) FROM Ratings WHERE stars > 3",
    "SELECT seller, MAX(price) FROM Products GROUP BY seller",
)


class TestTopology:
    def test_two_tier_shape(self):
        topo = FabricTopology.two_tier(tors=3, spines=2)
        assert len(topo) == 5
        assert [s.name for s in topo.tors] == ["tor-0", "tor-1", "tor-2"]
        assert [s.name for s in topo.spines] == ["spine-0", "spine-1"]
        # full bipartite: one link per (ToR, spine) pair
        assert topo.describe()[0] == (
            "fabric   : 3 ToR + 2 spine switches, 6 links"
        )

    def test_rejects_structural_nonsense(self):
        with pytest.raises(ConfigurationError):
            SwitchSpec("x", "core")  # unknown tier
        with pytest.raises(ConfigurationError):
            SwitchSpec("", "tor")  # unnamed
        with pytest.raises(ConfigurationError):
            FabricTopology.two_tier(tors=1, spines=0)  # no spine
        with pytest.raises(ConfigurationError):
            FabricTopology.two_tier(tors=0, spines=1)  # no tor

    def test_home_tor_is_deterministic(self):
        topo = FabricTopology.two_tier(tors=4)
        homes = {name: topo.home_tor(name).name for name in
                 ("Products", "Ratings", "UserVisits", "Rankings")}
        for name, home in homes.items():
            assert topo.home_tor(name).name == home  # stable across calls
        rebuilt = FabricTopology.two_tier(tors=4)
        for name, home in homes.items():
            assert rebuilt.home_tor(name).name == home


class TestTenantQuota:
    @dataclass
    class Req:
        tenant: str
        id: int = 0

    def test_default_share_and_overrides(self):
        quota = TenantQuota(max_share=0.25, limits={"vip": 10})
        assert quota.limit_for("anyone", 16) == 4
        assert quota.limit_for("vip", 16) == 10

    def test_check_sheds_only_over_quota(self):
        quota = TenantQuota(max_share=0.5)
        queue = [self.Req("loud"), self.Req("loud"), self.Req("quiet")]
        assert quota.check(self.Req("loud"), queue, max_depth=4) is not None
        assert quota.check(self.Req("quiet"), queue, max_depth=4) is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TenantQuota(max_share=0.0)

    def test_service_sheds_typed_tenant_quota(self, fleet_tables):
        service = QueryService(
            fleet_tables, workers=3, max_queue=8,
            quota=TenantQuota(max_share=0.25),
        )
        try:
            service.pause()
            service.submit(parse(FLEET_SQL[0]), tenant="loud")
            service.submit(parse(FLEET_SQL[1]), tenant="loud")
            with pytest.raises(Overloaded) as caught:
                service.submit(parse(FLEET_SQL[3]), tenant="loud")
            assert caught.value.reason == "tenant-quota"
            # another tenant is still admissible
            service.submit(parse(FLEET_SQL[2]), tenant="quiet")
            service.resume()
            counters = service.registry.counter_values()
            assert counters.get("serve_shed_total{reason=tenant-quota}") == 1
        finally:
            service.shutdown()


@dataclass
class FakeReq:
    """A queue entry as the fairness policy sees it."""

    tenant: str
    id: int


class TestWeightedFairPolicy:
    def test_round_robins_equal_weights(self):
        policy = WeightedFairPolicy()
        queue = [FakeReq("a", 1), FakeReq("a", 2), FakeReq("b", 3)]
        first = policy.select(queue)
        assert queue[first].tenant == "a"  # tie goes to queue order
        del queue[first]
        second = policy.select(queue)
        assert queue[second].tenant == "b"  # b's virtual time now trails

    def test_weights_bias_selection(self):
        policy = WeightedFairPolicy(weights={"heavy": 2.0})
        served = []
        queue = [FakeReq("heavy", 1), FakeReq("light", 2)]
        for i in range(9):
            index = policy.select(queue)
            served.append(queue[index].tenant)
        assert served.count("heavy") == 6  # 2:1 under contention
        assert served.count("light") == 3

    def test_new_tenant_banks_no_credit(self):
        policy = WeightedFairPolicy()
        queue = [FakeReq("old", 1)]
        for _ in range(50):
            policy.select(queue)
        queue.append(FakeReq("late", 2))
        index = policy.select(queue)
        # The late tenant joins at the current clock: it is next (its
        # vt equals the clock, below old's advanced vt) but has not
        # banked 50 rounds of credit — one select flips back to old.
        assert queue[index].tenant == "late"
        del queue[index]
        queue.append(FakeReq("late", 3))
        index = policy.select(queue)
        assert queue[index].tenant == "old"

    def test_starvation_watchdog_fires_once_per_excursion(self):
        registry = MetricsRegistry()
        events = EventLog(64, registry=registry)
        policy = WeightedFairPolicy(
            starvation_rounds=3, events=events, registry=registry
        )
        # a1 always leads (earliest of the min-vt tenant); a2 starves.
        queue = [FakeReq("a", 1), FakeReq("a", 2)]
        for _ in range(10):
            policy.select(queue)
        starved = [e for e in events.snapshot() if e["kind"] == "tenant-starvation"]
        assert len(starved) == 1  # flagged once, not every round after
        assert starved[0]["labels"]["tenant"] == "a"
        assert int(starved[0]["labels"]["rounds"]) >= 3
        assert policy.snapshot()["starvation_events"] == 1
        assert policy.snapshot()["max_rounds_waited"]["a"] >= 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            WeightedFairPolicy(weights={"t": -1})
        with pytest.raises(ConfigurationError):
            WeightedFairPolicy(starvation_rounds=0)


class TestFairnessRegression:
    """A flooding tenant must not starve a quiet tenant's slot formation."""

    def _positions(self, tables, fair: bool, flood: int = 8):
        policy = WeightedFairPolicy() if fair else None
        service = QueryService(
            tables, workers=3,
            config=ClusterConfig(seed=0),
            max_queue=flood + 4, worker_threads=1,
            max_pack=1, fairness=policy,
        )
        try:
            service.pause()
            tickets = [
                service.submit(
                    parse(f"SELECT COUNT(*) FROM Products WHERE price > {i}"),
                    tenant="flood",
                )
                for i in range(flood)
            ]
            quiet = service.submit(
                parse("SELECT COUNT(*) FROM Ratings WHERE stars > 2"),
                tenant="quiet",
            )
            service.resume()
            for ticket in tickets:
                ticket.result(30.0)
            quiet.result(30.0)
            ordered = sorted(
                tickets + [quiet], key=lambda t: t.timeline["completed"]
            )
            if policy is not None:
                assert policy.snapshot()["starvation_events"] == 0
            return ordered.index(quiet)
        finally:
            service.shutdown(drain=True)

    def test_quiet_tenant_served_within_bounded_rounds(self, fleet_tables):
        fifo = self._positions(fleet_tables, fair=False)
        fair = self._positions(fleet_tables, fair=True)
        assert fifo == 8, "FIFO serves the quiet tenant dead last"
        assert fair <= 2, (
            f"weighted-fair must serve the quiet tenant within a couple "
            f"of rounds of the flood, got position {fair}"
        )


@dataclass
class FakeReplica:
    """The replica surface the router reads, with scriptable state."""

    name: str
    tor: SwitchSpec
    state: str = ACTIVE
    occupancy: int = 0

    @property
    def active(self):
        return self.state == ACTIVE


class TestRouter:
    def make(self, occupancies=(0, 0), saturation=4, registry=None, events=None):
        topo = FabricTopology.two_tier(tors=2, spines=1)
        replicas = [
            FakeReplica(f"replica-{i}", topo.tors[i], occupancy=occupancies[i])
            for i in range(2)
        ]
        router = QueryRouter(
            replicas, topo, saturation=saturation,
            registry=registry, events=events,
        )
        return topo, replicas, router

    def test_locality_routes_to_home(self):
        topo, replicas, router = self.make()
        plan = parse(FLEET_SQL[0])
        home = topo.home_tor("Products").name
        replica, decision = router.route(plan)
        assert replica.tor.name == home
        assert decision.reason == "locality"

    def test_spillover_when_home_saturated(self):
        registry = MetricsRegistry()
        events = EventLog(16, registry=registry)
        topo, replicas, router = self.make(
            saturation=1, registry=registry, events=events
        )
        plan = parse(FLEET_SQL[0])
        home_name = topo.home_tor("Products").name
        for replica in replicas:
            if replica.tor.name == home_name:
                replica.occupancy = 5  # past saturation
        replica, decision = router.route(plan, tenant="t0")
        assert replica.tor.name != home_name
        assert decision.reason == "spillover"
        spilled = [e for e in events.snapshot() if e["kind"] == "fleet-spillover"]
        assert spilled and spilled[0]["labels"]["tenant"] == "t0"
        assert spilled[0]["labels"]["table"] == "Products"
        assert spilled[0]["labels"]["target"] == replica.name

    def test_least_loaded_when_home_draining(self):
        topo, replicas, router = self.make(occupancies=(1, 1))
        home_name = topo.home_tor("Products").name
        for replica in replicas:
            if replica.tor.name == home_name:
                replica.state = DRAINING
        replica, decision = router.route(parse(FLEET_SQL[0]))
        assert replica.tor.name != home_name
        assert decision.reason == "least-loaded"

    def test_no_active_replica_is_typed_overload(self):
        topo, replicas, router = self.make()
        for replica in replicas:
            replica.state = DRAINING
        with pytest.raises(Overloaded) as caught:
            router.route(parse(FLEET_SQL[0]))
        assert caught.value.reason == "no-active-replica"

    def test_rejects_bad_construction(self):
        topo = FabricTopology.two_tier(tors=1, spines=1)
        replica = FakeReplica("r", topo.tors[0])
        with pytest.raises(ConfigurationError):
            QueryRouter([], topo)
        with pytest.raises(ConfigurationError):
            QueryRouter([replica], topo, saturation=0)
        with pytest.raises(ConfigurationError):
            QueryRouter([replica, replica], topo)


class TestResultCacheSharing:
    """The shared cache must stay exact under concurrent fleet traffic."""

    def test_deep_freeze_isolates_nested_containers(self):
        frozen = freeze_result({"rows": [1, 2, 3], "tags": {"a"}})
        with pytest.raises(TypeError):
            frozen["rows"] = []
        with pytest.raises(TypeError):
            frozen["rows"].append(4)
        assert isinstance(frozen["tags"], frozenset)

    def test_evict_stale_is_a_floor_sweep(self):
        cache = ResultCache()
        cache.put("q", 1, 11)
        cache.put("q", 2, 22)
        cache.put("q", 3, 33)
        assert cache.evict_stale(2) == 1  # only the v1 entry drops
        assert cache.get("q", 2) == (True, 22)
        assert cache.get("q", 3) == (True, 33)
        assert cache.get("q", 1)[0] is False

    def test_concurrent_readers_sweeps_and_writes(self):
        cache = ResultCache()
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                for version in (1, 2, 3):
                    hit, value = cache.get("k", version)
                    if hit and value != version * 10:
                        errors.append((version, value))

        def writer():
            while not stop.is_set():
                for version in (1, 2, 3):
                    cache.put("k", version, version * 10)
                    cache.put(f"other-{version}", version, [version])

        def sweeper():
            while not stop.is_set():
                for version in (1, 2, 3):
                    cache.evict_stale(version)
                cache.invalidate_signature("other-1")

        threads = (
            [threading.Thread(target=reader, daemon=True) for _ in range(3)]
            + [threading.Thread(target=writer, daemon=True) for _ in range(2)]
            + [threading.Thread(target=sweeper, daemon=True)]
        )
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(5.0)
        assert not errors, f"stale or torn reads observed: {errors[:3]}"
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] > 0


class TestClientRetries:
    def test_retry_succeeds_after_shed_and_counts(self, fleet_tables):
        service = QueryService(fleet_tables, workers=3, max_queue=1)
        expected = run_reference(parse(FLEET_SQL[0]), fleet_tables)
        try:
            service.pause()
            blocker = service.submit(parse(FLEET_SQL[1]))  # fills the queue
            release = threading.Timer(0.15, service.resume)
            release.start()
            client = ServeClient(
                service, tenant="retry", retries=40, backoff=0.01, seed=7
            )
            assert client.query(FLEET_SQL[0]) == expected
            blocker.result(10.0)
            counters = service.registry.counter_values()
            assert counters.get("client_retries_total{tenant=retry}", 0) > 0
        finally:
            service.shutdown()

    def test_no_retries_raises_immediately(self, fleet_tables):
        service = QueryService(fleet_tables, workers=3, max_queue=1)
        try:
            service.pause()
            service.submit(parse(FLEET_SQL[1]))
            client = ServeClient(service, tenant="flood")
            with pytest.raises(Overloaded):
                client.query(FLEET_SQL[0])
            service.resume()
        finally:
            service.shutdown()


class TestFleetIntegration:
    def test_answers_exact_and_cache_shared_across_replicas(self, fleet_tables):
        expected = {
            sql: run_reference(parse(sql), fleet_tables) for sql in FLEET_SQL
        }
        topology = FabricTopology.two_tier(tors=2, spines=1)
        with FleetController(
            fleet_tables, topology=topology, replicas=2, seed=5
        ) as fleet:
            for sql in FLEET_SQL:
                assert fleet.query(sql) == expected[sql]
            # Force the same query onto the *other* replica: the shared
            # cache must hit even though that replica never ran it.
            plan = parse(FLEET_SQL[0])
            first, _ = fleet.router.route(plan)
            before = fleet.results.stats()["hits"]
            first.state = DRAINING
            try:
                other, decision = fleet.router.route(plan)
                assert other is not first
                assert fleet.query(FLEET_SQL[0]) == expected[FLEET_SQL[0]]
            finally:
                first.state = ACTIVE
            assert fleet.results.stats()["hits"] > before

    def test_rolling_update_never_fully_drains(self, fleet_tables):
        rng = np.random.default_rng(99)
        n = 800
        new_tables = {
            "Products": Table(
                "Products",
                {
                    "seller": rng.integers(0, 30, n),
                    "price": rng.integers(1, 100, n),
                },
            ),
            "Ratings": Table(
                "Ratings",
                {
                    "seller": rng.integers(0, 30, n // 2),
                    "stars": rng.integers(1, 6, n // 2),
                },
            ),
        }
        old = run_reference(parse(FLEET_SQL[0]), fleet_tables)
        new = run_reference(parse(FLEET_SQL[0]), new_tables)
        with FleetController(fleet_tables, replicas=2, seed=5) as fleet:
            assert fleet.query(FLEET_SQL[0]) == old
            stop = threading.Event()
            errors = []

            def load():
                client = ServeClient(fleet, tenant="load", retries=5, seed=2)
                while not stop.is_set():
                    output = client.query(FLEET_SQL[0])
                    if output not in (old, new):
                        errors.append(output)

            thread = threading.Thread(target=load, daemon=True)
            thread.start()
            try:
                version = fleet.rolling_update(new_tables)
            finally:
                stop.set()
                thread.join(10.0)
            assert version == 1
            assert fleet.last_update_kept_capacity
            assert not errors, "an in-window answer matched neither version"
            assert fleet.query(FLEET_SQL[0]) == new
            phases = [
                e["labels"]["phase"]
                for e in fleet.events.snapshot()
                if e["kind"] == "rolling-update"
            ]
            assert phases.count("drain") == 2
            assert phases.count("swap") == 2
            assert phases.count("readmit") == 2
            assert phases[-1] == "complete"

    def test_overloaded_submit_spills_to_sibling(self, fleet_tables):
        with FleetController(
            fleet_tables, replicas=2, max_queue=1, seed=5
        ) as fleet:
            plan = parse(FLEET_SQL[0])
            target, _ = fleet.router.route(plan)
            target.service.pause()
            try:
                target.service.submit(parse(FLEET_SQL[1]))  # fill its queue
                # The fleet submit reroutes to the sibling instead of
                # surfacing the shed.
                expected = run_reference(plan, fleet_tables)
                assert fleet.query(FLEET_SQL[0]) == expected
            finally:
                target.service.resume()

    def test_report_envelope_and_serve_client_duck_typing(self, fleet_tables):
        with FleetController(fleet_tables, replicas=2, seed=5) as fleet:
            client = ServeClient(fleet, tenant="duck", retries=1, seed=0)
            expected = run_reference(parse(FLEET_SQL[2]), fleet_tables)
            assert client.query(FLEET_SQL[2]) == expected
            report = fleet.report()
        assert report["benchmark"] == "fleet"
        assert "duck" in report["latency_ms"]
        assert report["summary"]["starvation_events"] == 0
        assert report["summary"]["replicas"] == 2
        assert len(report["replicas"]) == 2
        assert {e["kind"] for e in report["events"]} >= {"lifecycle"}

    def test_rejects_zero_replicas(self, fleet_tables):
        with pytest.raises(ConfigurationError):
            FleetController(fleet_tables, replicas=0)
