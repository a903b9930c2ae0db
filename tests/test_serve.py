"""The serving layer: exactness under concurrency, packing, shedding.

The contract under test is the one ``repro.serve`` exists to keep:
every answer a client receives equals ``Cluster.run_verified``'s output
for the same query — under concurrent load, under §6 packed scheduling,
under induced overload (shed requests fail with a typed
:class:`~repro.errors.Overloaded`, never a wrong answer), during a
graceful drain, and while another thread swaps the served tables.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.expressions import col
from repro.engine.plan import DistinctOp, FilterOp, GroupByOp, Query, TopNOp
from repro.engine.reference import run_reference
from repro.engine.sql import parse
from repro.engine.table import Table
from repro.errors import ConfigurationError, Overloaded, PlanError
from repro.serve import (
    AdmissionController,
    PackingScheduler,
    ProgramCache,
    QueryService,
    Request,
    ResultCache,
    ServeClient,
)
from repro.serve.cache import RESULT_CACHE_ENTRIES


@pytest.fixture
def serve_tables():
    """A two-table workload big enough that pruning/packing matter."""
    rng = np.random.default_rng(42)
    n = 1500
    products = Table(
        "Products",
        {
            "seller": rng.integers(0, 40, n),
            "price": rng.integers(1, 100, n),
            "stock": rng.integers(0, 10, n),
        },
    )
    ratings = Table(
        "Ratings",
        {
            "seller": rng.integers(0, 40, n // 2),
            "stars": rng.integers(1, 6, n // 2),
        },
    )
    return {"Products": products, "Ratings": ratings}


#: Mixed operators: filter/COUNT, DISTINCT, TOP N, GROUP BY (packable)
#: plus HAVING and JOIN (multi-pass, always solo slots).
MIXED_SQL = (
    "SELECT COUNT(*) FROM Products WHERE price > 50",
    "SELECT DISTINCT seller FROM Products",
    "SELECT TOP 5 price FROM Products ORDER BY price DESC",
    "SELECT seller, MAX(price) FROM Products GROUP BY seller",
    "SELECT seller FROM Products GROUP BY seller HAVING COUNT(price) > 30",
    "SELECT * FROM Products JOIN Ratings ON Products.seller = Ratings.seller",
)


def expected_outputs(tables):
    return {sql: run_reference(parse(sql), tables) for sql in MIXED_SQL}


class TestConcurrentExactness:
    def test_mixed_concurrent_clients_match_run_verified(self, serve_tables):
        expected = expected_outputs(serve_tables)
        cluster = Cluster(workers=4)
        for sql in MIXED_SQL:  # the reference the service must match
            assert cluster.run_verified(parse(sql), serve_tables).output == expected[sql]
        errors = []
        with QueryService(serve_tables, workers=4, worker_threads=3) as service:

            def client_loop(index):
                try:
                    client = ServeClient(service, tenant=f"tenant-{index % 3}")
                    for i, sql in enumerate(MIXED_SQL):
                        assert client.query(sql) == expected[sql]
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [
                threading.Thread(target=client_loop, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []

    def test_verify_mode_checks_against_reference(self, serve_tables):
        with QueryService(serve_tables, workers=3, verify=True) as service:
            assert (
                service.query(MIXED_SQL[0])
                == run_reference(parse(MIXED_SQL[0]), serve_tables)
            )

    def test_parallel_cluster_config_flows_through(self, serve_tables):
        config = ClusterConfig(parallelism=2)
        with QueryService(serve_tables, workers=4, config=config) as service:
            assert (
                service.query(MIXED_SQL[0])
                == run_reference(parse(MIXED_SQL[0]), serve_tables)
            )

    def test_engine_error_fails_only_that_request(self, serve_tables):
        with QueryService(serve_tables, workers=3) as service:
            with pytest.raises(PlanError):
                service.query("SELECT COUNT(*) FROM Products WHERE nope > 1")
            # the service survives and keeps answering exactly
            assert service.query(MIXED_SQL[0]) == run_reference(
                parse(MIXED_SQL[0]), serve_tables
            )


class TestPackingScheduler:
    def make(self, tables, **kwargs):
        cluster = Cluster(workers=3)
        return cluster, PackingScheduler(cluster, ProgramCache(), **kwargs)

    def test_packs_compatible_single_pass_queries(self, serve_tables):
        _, scheduler = self.make(serve_tables)
        head = Request(parse(MIXED_SQL[0]))
        queued = [Request(parse(sql)) for sql in MIXED_SQL[1:4]]
        extras = scheduler.plan_extras(head, queued, serve_tables)
        assert extras == queued[: scheduler.max_pack - 1]

    def test_respects_max_pack(self, serve_tables):
        _, scheduler = self.make(serve_tables, max_pack=2)
        head = Request(parse(MIXED_SQL[0]))
        queued = [Request(parse(sql)) for sql in MIXED_SQL[1:4]]
        assert len(scheduler.plan_extras(head, queued, serve_tables)) == 1

    def test_rejects_multi_pass_and_other_tables(self, serve_tables):
        _, scheduler = self.make(serve_tables)
        head = Request(parse(MIXED_SQL[0]))
        join = Request(parse(MIXED_SQL[5]))
        having = Request(parse(MIXED_SQL[4]))
        other_table = Request(parse("SELECT DISTINCT seller FROM Ratings"))
        extras = scheduler.plan_extras(
            head, [join, having, other_table], serve_tables
        )
        assert extras == []

    def test_where_queries_never_pack(self, serve_tables):
        _, scheduler = self.make(serve_tables)
        assert not scheduler.packable(
            parse("SELECT DISTINCT seller FROM Products WHERE price > 4")
        )
        head = Request(parse("SELECT DISTINCT seller FROM Products WHERE price > 4"))
        assert scheduler.plan_extras(
            head, [Request(parse(MIXED_SQL[1]))], serve_tables
        ) == []

    def test_disabled_packing_always_solo(self, serve_tables):
        _, scheduler = self.make(serve_tables, max_pack=1)
        head = Request(parse(MIXED_SQL[0]))
        queued = [Request(parse(sql)) for sql in MIXED_SQL[1:4]]
        assert scheduler.plan_extras(head, queued, serve_tables) == []

    def test_max_pack_must_be_positive(self, serve_tables):
        with pytest.raises(ConfigurationError):
            self.make(serve_tables, max_pack=0)


class TestPackedServing:
    def test_paused_backlog_leaves_in_packed_slot(self, serve_tables):
        expected = expected_outputs(serve_tables)
        service = QueryService(serve_tables, workers=4)
        try:
            service.pause()
            tickets = [service.submit(sql) for sql in MIXED_SQL[:4]]
            service.resume()
            outputs = [ticket.result(10.0) for ticket in tickets]
            assert outputs == [expected[sql] for sql in MIXED_SQL[:4]]
            summary = service.report()["summary"]
            assert summary["packed_queries"] >= 2
            assert summary["slots_packed"] >= 1
        finally:
            service.shutdown()

    def test_packed_and_solo_results_identical(self, serve_tables):
        expected = expected_outputs(serve_tables)
        packed = QueryService(serve_tables, workers=4)
        solo = QueryService(serve_tables, workers=4, max_pack=1)
        try:
            for svc in (packed, solo):
                svc.pause()
            packed_tickets = [packed.submit(sql) for sql in MIXED_SQL[:4]]
            solo_tickets = [solo.submit(sql) for sql in MIXED_SQL[:4]]
            for svc in (packed, solo):
                svc.resume()
            packed_out = [t.result(10.0) for t in packed_tickets]
            solo_out = [t.result(10.0) for t in solo_tickets]
            assert packed_out == solo_out == [expected[s] for s in MIXED_SQL[:4]]
            assert solo.report()["summary"]["packed_queries"] == 0
        finally:
            packed.shutdown()
            solo.shutdown()


class TestOverloadShedding:
    def test_queue_full_sheds_typed_never_wrong(self, serve_tables):
        expected = expected_outputs(serve_tables)
        service = QueryService(serve_tables, workers=3, max_queue=2)
        try:
            service.pause()
            accepted, shed = [], []
            for _ in range(10):
                try:
                    accepted.append(service.submit(parse(MIXED_SQL[1])))
                except Overloaded as error:
                    assert error.reason == "queue-full"
                    shed.append(error)
            service.resume()
            assert shed, "overload never triggered"
            # every accepted request still gets the exact answer
            for ticket in accepted:
                assert ticket.result(10.0) == expected[MIXED_SQL[1]]
            summary = service.report()["summary"]
            assert summary["failed"] == 0
        finally:
            service.shutdown()

    def test_expired_deadline_sheds_at_admission(self, serve_tables):
        with QueryService(serve_tables, workers=3) as service:
            service.pause()
            try:
                with pytest.raises(Overloaded) as caught:
                    service.submit(MIXED_SQL[1], timeout=-0.001)
                assert caught.value.reason == "deadline"
            finally:
                service.resume()

    def test_deadline_expiring_in_queue_sheds_at_dispatch(self, serve_tables):
        service = QueryService(serve_tables, workers=3)
        try:
            service.pause()
            ticket = service.submit(MIXED_SQL[1], timeout=0.02)
            import time

            time.sleep(0.08)
            service.resume()
            with pytest.raises(Overloaded) as caught:
                ticket.result(10.0)
            assert caught.value.reason == "deadline"
        finally:
            service.shutdown()

    def test_shed_counter_labeled_by_reason(self, serve_tables):
        service = QueryService(serve_tables, workers=3, max_queue=1)
        try:
            service.pause()
            service.submit(parse(MIXED_SQL[1]))
            with pytest.raises(Overloaded):
                service.submit(parse(MIXED_SQL[2]))
            service.resume()
            counters = service.registry.counter_values()
            assert counters.get("serve_shed_total{reason=queue-full}") == 1
        finally:
            service.shutdown()


class TestGracefulDrain:
    def test_drain_completes_admitted_requests(self, serve_tables):
        expected = expected_outputs(serve_tables)
        service = QueryService(serve_tables, workers=3)
        service.pause()
        tickets = [service.submit(sql) for sql in MIXED_SQL]
        service.resume()
        service.shutdown(drain=True)
        for sql, ticket in zip(MIXED_SQL, tickets):
            assert ticket.result(0.0) == expected[sql]
        summary = service.report()["summary"]
        assert summary["queue_depth"] == 0
        assert summary["inflight"] == 0

    def test_submit_after_shutdown_is_typed_shed(self, serve_tables):
        service = QueryService(serve_tables, workers=3)
        service.query(MIXED_SQL[0])  # warm the result cache
        service.shutdown()
        with pytest.raises(Overloaded) as caught:
            service.submit(MIXED_SQL[0])  # even a cache hit is refused
        assert caught.value.reason == "shutting-down"

    def test_non_drain_shutdown_sheds_backlog_typed(self, serve_tables):
        service = QueryService(serve_tables, workers=3)
        service.pause()
        tickets = [service.submit(parse(sql)) for sql in MIXED_SQL[:3]]
        service.shutdown(drain=False)
        reasons = []
        for ticket in tickets:
            try:
                ticket.result(5.0)
            except Overloaded as error:
                reasons.append(error.reason)
        assert reasons.count("shutting-down") == len(reasons)
        assert reasons  # at least the still-queued requests were shed

    def test_shutdown_is_idempotent(self, serve_tables):
        service = QueryService(serve_tables, workers=3)
        service.shutdown()
        service.shutdown()


def swap_tables(seed: int) -> dict:
    """A seeded table map for the swap tests (equal shapes, new data)."""
    rng = np.random.default_rng(seed)
    n = 900
    products = Table(
        "products",
        {
            "price": rng.integers(0, 400, n),
            "qty": rng.integers(0, 50, n),
            "cat": rng.integers(0, 30, n),
        },
    )
    return {"products": products}


#: The four single-pass kinds: filter, DISTINCT, TOP N, GROUP BY.
SERVICE_QUERIES = [
    Query(FilterOp("products", col("price") > 250)),
    Query(DistinctOp("products", ["cat"])),
    Query(TopNOp("products", "price", 12)),
    Query(GroupByOp("products", "cat", "price", "max")),
]


class TestTableSwaps:
    def service(self, tables, parallelism: int = 2, **kwargs) -> QueryService:
        return QueryService(
            tables,
            workers=5,
            config=ClusterConfig(batch_size=128, parallelism=parallelism),
            **kwargs,
        )

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_concurrent_swaps_never_mix_versions(self, parallelism):
        """Hammer update_tables while a verifying service executes: the
        service re-checks every answer against the reference executor
        over the slot's own table snapshot, so any mixed-version read
        would fail the request."""
        with self.service(
            swap_tables(22), parallelism=parallelism, verify=True
        ) as service:
            stop = threading.Event()

            def swapper():
                seed = 50
                while not stop.is_set():
                    service.update_tables(swap_tables(seed))
                    seed += 1

            thread = threading.Thread(target=swapper, daemon=True)
            thread.start()
            try:
                for _ in range(6):
                    for query in SERVICE_QUERIES:
                        # verify=True raises inside the slot on any
                        # parity violation; reaching result() proves the
                        # answer matched the snapshot's reference.
                        service.query(query)
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not thread.is_alive()


class TestResultCache:
    def test_canonicalized_hit_and_version_invalidation(self, serve_tables):
        service = QueryService(serve_tables, workers=3)
        try:
            first = service.query("select count(*) from Products where price > 50")
            second = service.query("SELECT COUNT(*)  FROM Products WHERE price > 50")
            assert first == second
            assert service.report()["summary"]["cache_hits"] == 1
            service.update_tables()
            third = service.query(MIXED_SQL[0])
            assert third == first
            assert service.report()["summary"]["cache_hits"] == 1  # miss after bump
        finally:
            service.shutdown()

    def test_cached_output_is_isolated_from_mutation(self, serve_tables):
        service = QueryService(serve_tables, workers=3)
        try:
            first = service.query(MIXED_SQL[1])
            first.add("sabotage")
            second = service.query(MIXED_SQL[1])
            assert "sabotage" not in second
        finally:
            service.shutdown()

    def test_lru_unit(self):
        cache = ResultCache()
        cache.put("a", 0, {1})
        cache.put("b", 0, {2})
        for i in range(RESULT_CACHE_ENTRIES - 1):
            cache.put(f"c{i}", 0, {3})
        assert cache.get("a", 0) == (False, None)
        assert cache.get("b", 0) == (True, {2})
        assert cache.get("b", 1) == (False, None)  # version mismatch


class TestAdmissionUnit:
    def test_backlog_estimate_sheds_tight_deadlines(self):
        controller = AdmissionController(max_depth=10, concurrency=1)
        controller.note_service_seconds(10.0)  # pathological EWMA
        query = parse("SELECT COUNT(*) FROM T WHERE x > 1")
        import time

        controller.admit(Request(query))  # no deadline: always admitted
        with pytest.raises(Overloaded) as caught:
            controller.admit(
                Request(query, deadline=time.monotonic() + 0.5)
            )
        assert caught.value.reason == "deadline"

    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_depth=0)


class TestObservability:
    def test_gauges_histograms_and_spans_recorded(self, serve_tables):
        service = QueryService(serve_tables, workers=3)
        try:
            ServeClient(service, tenant="alpha").query(MIXED_SQL[0])
            ServeClient(service, tenant="beta").query(MIXED_SQL[1])
            report = service.report()
            assert report["benchmark"] == "serving"
            assert set(report["latency_ms"]) == {"alpha", "beta"}
            for figures in report["latency_ms"].values():
                assert figures["count"] == 1
                assert figures["p99"] >= figures["p50"] >= 0.0
            gauges = service.registry.gauge_values()
            assert "serve_queue_depth{}" in gauges
            assert "serve_inflight{}" in gauges
            span_names = {span.name for span in service.registry.spans}
            assert {"serve-queued", "serve-execute", "serve-request"} <= span_names
        finally:
            service.shutdown()

    def test_summary_counts_every_outcome(self, serve_tables):
        """report()["summary"] reads the registry's counters: a packed
        slot, a solo slot, a failed slot, a cache hit and the misses
        before it each land exactly once."""
        packable, join = MIXED_SQL[1:4], MIXED_SQL[5]
        broken = "SELECT COUNT(*) FROM Products WHERE nope > 1"
        service = QueryService(serve_tables, workers=3, worker_threads=1)
        try:
            service.pause()
            tickets = [service.submit(sql) for sql in packable]
            service.resume()
            for ticket in tickets:
                ticket.result(10.0)
            service.query(join, tenant="joiner")
            with pytest.raises(PlanError):
                service.query(broken, tenant="joiner")
            service.query(packable[0])  # result-cache hit
            summary = service.report()["summary"]
        finally:
            service.shutdown()
        cluster = Cluster(workers=3)
        packed = cluster.run_packed([parse(sql) for sql in packable], serve_tables)
        solo = cluster.run(parse(join), serve_tables)
        streamed = packed.total_streamed + solo.total_streamed
        forwarded = packed.total_forwarded + solo.total_forwarded
        assert {key: summary[key] for key in (
            "requests", "completed", "failed", "cache_hits", "cache_misses",
            "slots_packed", "slots_solo", "packed_queries", "streamed",
            "forwarded",
        )} == {
            "requests": 6, "completed": 5, "failed": 1, "cache_hits": 1,
            "cache_misses": 5, "slots_packed": 1, "slots_solo": 1,
            "packed_queries": 3, "streamed": streamed, "forwarded": forwarded,
        }
        assert summary["pruning_rate"] == (streamed - forwarded) / streamed
        counters = service.registry.counter_values()
        assert counters["serve_failed_total{tenant=joiner}"] == 1
        assert counters["serve_completed_total{tenant=default}"] == 4

    def test_report_is_schema_valid_envelope(self, serve_tables):
        import json
        import os
        import sys

        scripts = os.path.join(os.path.dirname(__file__), "..", "scripts")
        sys.path.insert(0, scripts)
        try:
            import check_schema
        finally:
            sys.path.remove(scripts)
        with QueryService(serve_tables, workers=3) as service:
            service.query(MIXED_SQL[0])
            report = service.report()
        json.dumps(report)  # must be JSON-serializable
        problems = []
        assert check_schema.check_document(report, "report", problems) == (
            "serve report"
        )
        assert problems == []


# ---------------------------------------------------------------------------
# Frozen result-cache views
# ---------------------------------------------------------------------------


class TestFrozenResults:
    def test_freeze_preserves_equality(self):
        from repro.serve.cache import FrozenList, freeze_result

        assert freeze_result({1, 2}) == {1, 2}
        assert freeze_result({"a": 1}) == {"a": 1}
        assert freeze_result([3, 1, 2]) == [3, 1, 2]
        assert freeze_result(42) == 42
        frozen = freeze_result([1])
        assert isinstance(frozen, FrozenList)
        assert freeze_result(frozen) is frozen

    def test_frozen_list_rejects_mutation(self):
        from repro.serve.cache import freeze_result

        frozen = freeze_result([1, 2, 3])
        for mutate in (
            lambda: frozen.append(4),
            lambda: frozen.extend([4]),
            lambda: frozen.pop(),
            lambda: frozen.sort(),
            lambda: frozen.__setitem__(0, 9),
            lambda: frozen.__delitem__(0),
        ):
            with pytest.raises(TypeError, match="read-only"):
                mutate()

    def test_frozen_set_and_dict_reject_mutation(self):
        from repro.serve.cache import freeze_result

        frozen_set = freeze_result({1, 2})
        assert not hasattr(frozen_set, "add")
        frozen_map = freeze_result({"a": 1})
        with pytest.raises(TypeError):
            frozen_map["b"] = 2

    def test_result_cache_hits_share_one_frozen_view(self):
        from repro.serve.cache import ResultCache

        cache = ResultCache()
        original = {10, 20}
        cache.put("plan", 1, original)
        hit, first = cache.get("plan", 1)
        assert hit and first == original
        _, second = cache.get("plan", 1)
        assert second is first  # shared view, no per-hit copy
        # Mutating the caller's original after put never leaks in.
        original.add(30)
        _, third = cache.get("plan", 1)
        assert third == {10, 20}
