"""Run-path invariants that outlived table residency.

Every run, in-process or pool, reads its columns from the ``Table``; a
pool run exports them per run through ``SharedColumnStore``.  The
contracts a resident column store once had to keep still hold on that
path, and are checked here:

* **Exactness** — every operator at every parallelism matches the
  reference executor, including repeated runs, packed slots, WHERE
  masks, a missing ``multiprocessing.shared_memory`` and a pool respawn.
* **Version swaps** — a service answers from the swapped tables, even
  after its pool processes are replaced.
* **No leaks** — a drained pool-backed service leaves no ``/dev/shm``
  segment behind.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.expressions import col
from repro.engine.plan import (
    DistinctOp,
    FilterOp,
    GroupByOp,
    HavingOp,
    JoinOp,
    Query,
    SkylineOp,
    TopNOp,
)
from repro.engine.reference import run_reference
from repro.engine.table import Table
from repro.serve import QueryService

PARALLELISMS = (1, 2, 4)
BATCH = 128


def make_tables(seed: int) -> dict:
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
    ratings = Table("ratings", {"cat": rng.integers(0, 40, n // 2)})
    return {"products": products, "ratings": ratings}


def make_query(op_name: str) -> Query:
    return {
        "filter": Query(FilterOp("products", col("price") > 250)),
        "distinct": Query(DistinctOp("products", ["cat"])),
        "topn": Query(TopNOp("products", "price", 12)),
        "groupby": Query(GroupByOp("products", "cat", "price", "max")),
        "having": Query(
            HavingOp("products", "cat", "price", threshold=5000.0, aggregate="sum")
        ),
        "join": Query(JoinOp("products", "ratings", "cat", "cat")),
        "skyline": Query(SkylineOp("products", ["price", "qty"])),
    }[op_name]


def make_cluster(parallelism: int) -> Cluster:
    return Cluster(
        workers=5,
        config=ClusterConfig(batch_size=BATCH, parallelism=parallelism),
    )


def shm_entries() -> set:
    return set(os.listdir("/dev/shm"))


class TestEquivalence:
    """Where the columns come from changes performance, never answers."""

    @pytest.mark.parametrize(
        "op_name",
        ["filter", "distinct", "topn", "groupby", "having", "join", "skyline"],
    )
    def test_all_operators_exact_at_every_parallelism(self, op_name):
        tables = make_tables(7)
        query = make_query(op_name)
        expected = run_reference(query, tables)
        for parallelism in PARALLELISMS:
            c = make_cluster(parallelism)
            for _ in range(2):  # a second run reuses the shard-plan memo
                assert c.run_verified(query, tables).output == expected

    def test_packed_slot_streams_resident_views(self):
        """A packed slot streams the table's own columns in one pass."""
        tables = make_tables(10)
        queries = [
            Query(FilterOp("products", col("price") > 250)),
            Query(DistinctOp("products", ["cat"])),
            Query(TopNOp("products", "price", 12)),
        ]
        packed = make_cluster(1).run_packed(queries, tables)
        assert len(packed.results) == len(queries)
        for query, result in zip(queries, packed.results):
            assert result.output == run_reference(query, tables)

    def test_where_masked_table_falls_back_exactly(self):
        tables = make_tables(11)
        query = Query(
            GroupByOp("products", "cat", "price", "max"), where=col("qty") <= 25
        )
        for parallelism in (1, 2):
            assert make_cluster(parallelism).run_verified(
                query, tables
            ).output == run_reference(query, tables)

    def test_no_shared_memory_degrades_to_per_run_path(self, monkeypatch):
        """Without ``multiprocessing.shared_memory`` a pool run cannot
        export its columns, so it runs in-process and stays exact."""
        import repro.parallel.shm as shm_mod

        monkeypatch.setattr(shm_mod, "_shared_memory", None)
        tables = make_tables(12)
        query = make_query("filter")
        result = make_cluster(2).run_verified(query, tables)
        assert result.output == run_reference(query, tables)
        counters = result.metrics.counter_values()
        assert counters["parallel_fallback_total{reason=no-shared-memory}"] == 1

    def test_pool_respawn_reattaches_resident_segments(self):
        """Fresh pool processes attach the next run's exports and answer
        exactly."""
        import repro.parallel.runner as runner

        tables = make_tables(13)
        query = make_query("distinct")
        expected = run_reference(query, tables)
        c = make_cluster(2)
        assert c.run_verified(query, tables).output == expected
        runner._shutdown_pools()
        assert c.run_verified(query, tables).output == expected


#: The four single-pass kinds: filter, DISTINCT, TOP N, GROUP BY.
SERVICE_QUERIES = [
    Query(FilterOp("products", col("price") > 250)),
    Query(DistinctOp("products", ["cat"])),
    Query(TopNOp("products", "price", 12)),
    Query(GroupByOp("products", "cat", "price", "max")),
]


class TestServiceResidency:
    """A service holds its tables; swaps and drains keep it exact and
    leak-free."""

    def service(self, tables, parallelism: int = 2, **kwargs) -> QueryService:
        return QueryService(
            tables,
            workers=5,
            config=ClusterConfig(batch_size=BATCH, parallelism=parallelism),
            **kwargs,
        )

    def test_service_installs_versioned_store_and_answers_exactly(self):
        tables = make_tables(20)
        with self.service(tables) as service:
            # The service holds the caller's Table objects, not copies.
            for name, table in tables.items():
                assert service.tables[name] is table
            assert service.tables_version == 0
            for query in SERVICE_QUERIES:
                assert service.query(query) == run_reference(query, tables)
            summary = service.report()["summary"]
            assert summary["tables_version"] == 0
            assert "shard_plan_cache" in summary
            assert "resident" not in summary

    def test_swap_then_pool_respawn_stays_exact(self):
        import repro.parallel.runner as runner

        tables = make_tables(23)
        with self.service(tables) as service:
            query = SERVICE_QUERIES[0]
            assert service.query(query) == run_reference(query, tables)
            swapped = make_tables(77)
            assert service.update_tables(swapped) == 1
            runner._shutdown_pools()  # fresh pool processes
            for q in SERVICE_QUERIES:
                assert service.query(q) == run_reference(q, swapped)

    def test_drain_leaves_no_segments(self, monkeypatch):
        """A pool-backed service exports each run's columns to shared
        memory; after a drained shutdown none of those segments — and no
        other new ``/dev/shm`` entry — is left behind."""
        import repro.parallel.runner as runner
        from repro.parallel.shm import SharedColumnStore

        created: list = []

        class RecordingStore(SharedColumnStore):
            def __init__(self, columns):
                super().__init__(columns)
                created.extend(segment.name for segment in self._segments)

        monkeypatch.setattr(runner, "SharedColumnStore", RecordingStore)
        before = shm_entries()
        tables = make_tables(24)
        service = self.service(tables)
        for query in SERVICE_QUERIES:
            assert service.query(query) == run_reference(query, tables)
        service.shutdown(drain=True)
        assert created, "no run exported a segment — test is vacuous"
        assert not shm_entries() & set(created)
        assert shm_entries() <= before
