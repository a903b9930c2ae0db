"""The process-parallel dataplane: equivalence, determinism, fallbacks.

The load-bearing contract: a run at ``parallelism=N`` produces the same
*output* as the sequential batched path for every operator (both are
verified against the reference executor), streams the same total volume,
and reports through the same metrics schema — while actually executing
each pruner shard in its own OS process over shared-memory columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.expressions import col
from repro.engine.plan import (
    CountOp,
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
from repro.errors import ConfigurationError, SharedMemoryUnavailable
from repro.obs import EventLog

SEEDS = (1, 7, 42)
ALL_OPS = ["filter", "distinct", "topn", "groupby", "having", "join", "skyline"]
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


def cluster(parallelism: int, **overrides) -> Cluster:
    return Cluster(
        workers=5,
        config=ClusterConfig(
            batch_size=BATCH, parallelism=parallelism, **overrides
        ),
    )


class TestEquivalence:
    """All 7 operators x 3 seeds x parallelism {1, 2, 4}."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("op_name", ALL_OPS)
    def test_output_and_volume_match_sequential(self, op_name, seed):
        tables = make_tables(seed)
        query = make_query(op_name)
        sequential = cluster(1).run_verified(query, tables)
        for parallelism in PARALLELISMS:
            result = cluster(parallelism).run_verified(query, tables)
            assert result.output == sequential.output
            assert result.total_streamed == sequential.total_streamed
            assert [p.name for p in result.phases] == [
                p.name for p in sequential.phases
            ]

    @staticmethod
    def _assert_executor_and_batch_invariant(query, tables):
        """{in-process, 2 pool shards} x batch_size {None, 7, 4096}: the
        reference output, one set of phase names, and — within an executor
        — batch-invariant phase (names and volumes) and pruner counters."""
        expected = run_reference(query, tables)
        phase_names = set()
        for parallelism in (1, 2):
            counters = []
            for batch_size in (None, 7, 4096):
                config = ClusterConfig(batch_size=batch_size, parallelism=parallelism)
                result = Cluster(workers=5, config=config).run(query, tables)
                assert result.output == expected
                phase_names.add(tuple(phase.name for phase in result.phases))
                counters.append(
                    {
                        name: value
                        for name, value in result.metrics.counter_values().items()
                        if name.startswith(("phase_", "pruner_"))
                    }
                )
            assert counters[0] == counters[1] == counters[2]
        assert len(phase_names) == 1

    @pytest.mark.parametrize("op_name", ALL_OPS)
    def test_every_plan_on_both_executors_at_every_batch_size(self, op_name):
        self._assert_executor_and_batch_invariant(
            make_query(op_name), make_tables(21)
        )

    @pytest.mark.parametrize(
        "case",
        [
            "join-str", "having-str", "having-max-str", "join-empty",
            "having-empty", "skyline-empty", "having-where-none",
            "skyline-where-none",
        ],
    )
    def test_multi_pass_plans_on_string_keys_and_empty_streams(self, case):
        """What the multi-pass kernels meet beyond integer keys: ``str``
        keys, a table with no rows, a WHERE that masks every row."""
        op_name, _, variant = case.partition("-")
        rng = np.random.default_rng(3)
        n = 0 if variant == "empty" else 600

        def tag(high, count):
            return np.array(
                [f"t{v}" for v in rng.integers(0, high, count)], dtype="<U3"
            )

        tables = {
            "products": Table(
                "products",
                {
                    "price": rng.integers(0, 400, n),
                    "qty": rng.integers(0, 50, n),
                    "tag": tag(30, n),
                },
            ),
            "ratings": Table("ratings", {"tag": tag(40, 300)}),
        }
        where = col("price") < 0 if variant == "where-none" else None
        operator = {
            "join": JoinOp("products", "ratings", "tag", "tag"),
            "having": HavingOp(
                "products", "tag", "price",
                threshold=390.0 if variant == "max-str" else 4000.0,
                aggregate="max" if variant == "max-str" else "sum",
            ),
            "skyline": SkylineOp("products", ["price", "qty"]),
        }[op_name]
        self._assert_executor_and_batch_invariant(Query(operator, where=where), tables)

    def test_count_with_where(self):
        tables = make_tables(3)
        query = Query(
            CountOp("products", col("price") > 100), where=col("qty") <= 25
        )
        sequential = cluster(1).run_verified(query, tables)
        result = cluster(4).run_verified(query, tables)
        assert result.output == sequential.output

    def test_where_before_stateful_operator(self):
        tables = make_tables(5)
        query = Query(DistinctOp("products", ["cat"]), where=col("price") > 200)
        sequential = cluster(1).run_verified(query, tables)
        result = cluster(3).run_verified(query, tables)
        assert result.output == sequential.output

    def test_deterministic_topn_replicas(self):
        tables = make_tables(11)
        query = make_query("topn")
        sequential = cluster(1, topn_randomized=False).run_verified(query, tables)
        result = cluster(4, topn_randomized=False).run_verified(query, tables)
        assert result.output == sequential.output

    def test_multi_column_distinct_hash_shards(self):
        tables = make_tables(13)
        query = Query(DistinctOp("products", ["cat", "qty"]))
        sequential = cluster(1).run_verified(query, tables)
        result = cluster(4).run_verified(query, tables)
        assert result.output == sequential.output

    def test_survivor_stream_is_superset_of_reference(self):
        tables = make_tables(17)
        query = make_query("filter")
        expected = run_reference(query, tables)
        result = cluster(4).run(query, tables)
        assert result.output == expected
        assert result.total_forwarded >= len(expected)


class TestMetrics:
    def test_report_schema_matches_sequential(self):
        tables = make_tables(1)
        query = make_query("filter")
        sequential = cluster(1).run(query, tables).report()
        parallel = cluster(2).run(query, tables).report()
        assert set(sequential) == set(parallel)
        assert [p["name"] for p in sequential["phases"]] == [
            p["name"] for p in parallel["phases"]
        ]
        assert set(sequential["metrics"]) == set(parallel["metrics"])
        counter_names = lambda report: {  # noqa: E731
            entry["name"] for entry in report["metrics"]["counters"]
        }
        assert counter_names(sequential) == counter_names(parallel)
        span_names = lambda report: {  # noqa: E731
            span["name"] for span in report["metrics"]["spans"]
        }
        assert span_names(sequential) == span_names(parallel)

    def test_stateless_filter_counters_equal_sequential(self):
        tables = make_tables(2)
        query = make_query("filter")
        sequential = cluster(1).run(query, tables)
        parallel = cluster(2).run(query, tables)
        seq_counters = sequential.metrics.counter_values()
        par_counters = parallel.metrics.counter_values()
        for name, value in seq_counters.items():
            if name.startswith("phase_") or name.startswith("pruner_"):
                assert par_counters[name] == value, name

    @pytest.mark.parametrize("op_name", ["distinct", "having", "join"])
    def test_merged_totals_equal_streamed_totals(self, op_name):
        tables = make_tables(4)
        result = cluster(4).run(make_query(op_name), tables)
        counters = result.metrics.counter_values()
        streamed = sum(
            v
            for name, v in counters.items()
            if name.startswith("phase_entries_streamed_total")
        )
        assert streamed == result.total_streamed
        worker_streamed = sum(
            v
            for name, v in counters.items()
            if name.startswith("worker_entries_streamed_total")
        )
        assert worker_streamed == result.total_streamed

    def test_gauges_are_labeled_per_shard(self):
        tables = make_tables(6)
        result = cluster(2).run(make_query("distinct"), tables)
        shard_labels = {
            entry["labels"].get("shard")
            for entry in result.metrics.to_dict()["gauges"]
        }
        assert {"0", "1"} <= shard_labels


class TestDeterminism:
    @pytest.mark.parametrize("op_name", ["filter", "distinct", "join"])
    def test_repeated_runs_are_identical(self, op_name):
        tables = make_tables(9)
        query = make_query(op_name)
        first = cluster(3).run(query, tables)
        second = cluster(3).run(query, tables)
        assert first.output == second.output
        assert first.metrics.counter_values() == second.metrics.counter_values()
        assert first.metrics.gauge_values() == second.metrics.gauge_values()


class TestFallbacks:
    def test_parallelism_one_never_enters_parallel_path(self, monkeypatch):
        import repro.parallel.runner as runner

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("parallel path entered at parallelism=1")

        monkeypatch.setattr(runner, "run_parallel", boom)
        tables = make_tables(1)
        result = cluster(1).run_verified(make_query("filter"), tables)
        assert result.used_cheetah

    def test_active_injector_forces_sequential(self, monkeypatch):
        from repro.faults.plan import FaultPlan

        import repro.parallel.runner as runner

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("parallel path entered under fault injection")

        monkeypatch.setattr(runner, "run_parallel", boom)
        tables = make_tables(1)
        plan = FaultPlan(events=[], seed=0)
        result = cluster(2, fault_plan=plan).run(make_query("filter"), tables)
        assert result.faults is not None

    def test_shared_memory_unavailable_falls_back(self, monkeypatch):
        import repro.parallel.runner as runner

        def unavailable(*args, **kwargs):
            raise SharedMemoryUnavailable("no segments in this test")

        monkeypatch.setattr(runner, "SharedColumnStore", unavailable)
        tables = make_tables(1)
        query = make_query("filter")
        fleet = cluster(2)
        fleet.events = EventLog()
        result = fleet.run_verified(query, tables)
        assert result.output == cluster(1).run(query, tables).output
        counters = result.metrics.counter_values()
        assert counters["parallel_fallback_total{reason=no-shared-memory}"] == 1
        (event,) = [
            e for e in fleet.events.snapshot() if e["kind"] == "parallel-fallback"
        ]
        assert event["labels"]["reason"] == "no-shared-memory"

    def test_pool_death_fallback_keeps_the_pool_counters(self, monkeypatch):
        """The registry that saw the respawn is the result's registry."""
        import repro.parallel.runner as runner

        def dying_gather(cluster, specs, task, registry):
            registry.counter("pool_respawns_total", "Respawns.").inc()
            raise SharedMemoryUnavailable(
                "shard pool died twice: injected", reason="pool-died"
            )

        monkeypatch.setattr(runner, "_gather", dying_gather)
        tables = make_tables(1)
        for op_name in ("filter", "join"):
            result = cluster(2).run_verified(make_query(op_name), tables)
            counters = result.metrics.counter_values()
            assert counters["parallel_fallback_total{reason=pool-died}"] == 1
            assert counters["pool_respawns_total{}"] == 1

    def test_baseline_runs_stay_sequential(self, monkeypatch):
        import repro.parallel.runner as runner

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("baseline must not use the parallel path")

        monkeypatch.setattr(runner, "run_parallel", boom)
        tables = make_tables(1)
        result = cluster(2).run(make_query("filter"), tables, use_cheetah=False)
        assert not result.used_cheetah


class TestShardPolicy:
    def test_explicit_hash_for_keyless_op_is_contiguous(self):
        from repro.engine.plan import FilterOp as F
        from repro.parallel.shard import CONTIGUOUS, resolve_policy

        op = F("products", col("price") > 1)
        assert resolve_policy(op, True) == CONTIGUOUS

    def test_auto_policy_per_operator(self):
        from repro.parallel.shard import CONTIGUOUS, HASHED, resolve_policy

        assert resolve_policy(make_query("distinct").operator, True) == HASHED
        assert resolve_policy(make_query("having").operator, True) == HASHED
        assert resolve_policy(make_query("join").operator, True) == HASHED
        assert resolve_policy(make_query("skyline").operator, True) == CONTIGUOUS
        assert resolve_policy(make_query("topn").operator, False) == CONTIGUOUS
        assert resolve_policy(make_query("topn").operator, True) == HASHED

    def test_bad_policy_string_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(parallelism=0)


class TestPartitioner:
    def test_hash_partition_batch_matches_scalar(self):
        from repro.extensions.multiswitch import (
            hash_partition,
            hash_partition_batch,
        )

        values = np.random.default_rng(0).integers(0, 10_000, 500)
        batch = hash_partition_batch(values, 7)
        scalars = [hash_partition(int(v), 7) for v in values]
        assert batch.tolist() == scalars

    def test_hash_shards_cover_all_rows_disjointly(self):
        from repro.parallel.shard import plan_hash_shards

        values = np.random.default_rng(1).integers(0, 100, 1000)
        shards = plan_hash_shards(values, 4)
        merged = np.concatenate(shards)
        assert sorted(merged.tolist()) == list(range(1000))

    def test_same_key_lands_on_one_shard(self):
        from repro.parallel.shard import plan_hash_shards

        values = np.repeat(np.arange(50), 20)
        shards = plan_hash_shards(values, 4)
        owner = {}
        for shard_id, index in enumerate(shards):
            for key in np.unique(values[index]):
                assert owner.setdefault(int(key), shard_id) == shard_id

    def test_derived_seeds_distinct_and_stable(self):
        from repro.parallel.shard import derive_shard_seed

        seeds = [derive_shard_seed(0, shard) for shard in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [derive_shard_seed(0, shard) for shard in range(8)]


def worker_counts(result, family: str, phase: str, workers: int = 5) -> list:
    """One phase's per-worker counter values; KeyError if a label is missing."""
    counters = result.metrics.counter_values()
    return [counters[f"{family}{{phase={phase},worker={w}}}"] for w in range(workers)]


class TestWorkerShares:
    def test_shares_match_table_partition_sizes(self):
        tables = make_tables(8)
        result = cluster(1).run(make_query("having"), tables)
        shares = worker_counts(result, "worker_entries_streamed_total", "having-sketch")
        assert shares == [len(part) for part in tables["products"].partition(5)]

    def test_remainder_goes_to_later_workers(self):
        table = Table("products", {"price": np.arange(7), "qty": np.arange(7)})
        result = Cluster(workers=4, config=ClusterConfig(batch_size=BATCH)).run(
            make_query("skyline"), {"products": table}
        )
        streamed = worker_counts(
            result, "worker_entries_streamed_total", "skyline-stream", workers=4
        )
        assert streamed == [1, 2, 2, 2]

    @pytest.mark.parametrize("op_name", ALL_OPS)
    def test_pool_runs_label_every_cluster_worker(self, op_name):
        """Worker labels range over the cluster's workers, never the
        shards, and sum to the phase totals — on both executors."""
        tables = make_tables(8)
        sequential = cluster(1).run(make_query(op_name), tables)
        pooled = cluster(2).run(make_query(op_name), tables)
        for result in (sequential, pooled):
            counters = result.metrics.counter_values()
            for phase in result.phases:
                streamed = worker_counts(
                    result, "worker_entries_streamed_total", phase.name
                )
                assert sum(streamed) == phase.streamed
                if f"worker_entries_forwarded_total{{phase={phase.name},worker=0}}" in counters:
                    forwarded = worker_counts(
                        result, "worker_entries_forwarded_total", phase.name
                    )
                    assert sum(forwarded) == phase.forwarded
            assert not any("worker=5" in name for name in counters)
        worker_families = lambda result: {  # noqa: E731
            name for name in result.metrics.counter_values() if name.startswith("worker_")
        }
        assert worker_families(sequential) == worker_families(pooled)

    def test_multi_pass_worker_totals_equal_phase_totals(self):
        tables = make_tables(8)
        result = cluster(1).run(make_query("join"), tables)
        counters = result.metrics.counter_values()
        worker_total = sum(
            v
            for name, v in counters.items()
            if name.startswith("worker_entries_streamed_total")
        )
        assert worker_total == result.total_streamed


class TestSharedMemory:
    def test_round_trip_numeric_and_object_columns(self):
        from repro.parallel.shm import SharedColumnStore, attach_columns

        columns = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0, 1, 100),
            "s": np.array(["x", "y"] * 50, dtype=object),
        }
        with SharedColumnStore(columns) as store:
            attached, close = attach_columns(store.handle())
            try:
                for name, array in columns.items():
                    assert np.array_equal(attached[name], array)
            finally:
                close()

    def test_empty_column_round_trip(self):
        from repro.parallel.shm import SharedColumnStore, attach_columns

        with SharedColumnStore({"a": np.empty(0, dtype=np.int64)}) as store:
            attached, close = attach_columns(store.handle())
            try:
                assert len(attached["a"]) == 0
            finally:
                close()

    def test_error_between_export_and_submit_unlinks_segments(self, monkeypatch):
        """Satellite regression: an exception after segment creation but
        before task submission must leave nothing behind in /dev/shm."""
        import os

        import repro.parallel.runner as runner
        from repro.parallel.shm import SharedColumnStore

        created: list = []

        class RecordingStore(SharedColumnStore):
            def __init__(self, columns):
                super().__init__(columns)
                created.extend(segment.name for segment in self._segments)

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure before submission")

        monkeypatch.setattr(runner, "SharedColumnStore", RecordingStore)
        monkeypatch.setattr(runner, "_gather", boom)
        tables = make_tables(1)
        with pytest.raises(RuntimeError, match="injected failure"):
            cluster(2).run(make_query("filter"), tables)
        assert created, "the store was never built — test is vacuous"
        for name in created:
            assert not os.path.exists(f"/dev/shm/{name}"), name

    def test_close_survives_live_attached_views(self):
        from repro.parallel.shm import SharedColumnStore, attach_columns

        store = SharedColumnStore({"a": np.arange(64, dtype=np.int64)})
        names = [segment.name for segment in store._segments]
        attached, close = attach_columns(store.handle())
        view = attached["a"]
        store.close()  # unlink must succeed even with the view alive
        import os

        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")
        assert view.sum() == np.arange(64).sum()  # pages live until close
        close()


class TestShardPlanCache:
    def setup_method(self):
        from repro.parallel.shard import invalidate_shard_plans

        invalidate_shard_plans()

    def test_repeat_runs_hit_the_plan_cache(self):
        """Satellite: hash-partition planning is memoized per
        (table identity, key signature, parallelism)."""
        from repro.parallel.shard import shard_plan_cache_stats

        tables = make_tables(1)
        query = make_query("distinct")
        c = cluster(2)
        c.run_verified(query, tables)
        before = shard_plan_cache_stats()
        c.run_verified(query, tables)
        after = shard_plan_cache_stats()
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_groupby_and_having_share_key_plans(self):
        from repro.engine.operators import shard_key
        from repro.parallel.shard import (
            cached_hash_plan,
            shard_plan_cache_stats,
        )

        tables = make_tables(2)
        table = tables["products"]
        groupby = shard_key(make_query("groupby").operator)
        having = shard_key(make_query("having").operator)
        first = cached_hash_plan(groupby, table, 3)
        hits_before = shard_plan_cache_stats()["hits"]
        second = cached_hash_plan(having, table, 3)
        assert shard_plan_cache_stats()["hits"] > hits_before
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_swapped_table_never_reuses_plans(self):
        from repro.engine.operators import shard_key
        from repro.parallel.shard import cached_hash_plan

        op = shard_key(make_query("distinct").operator)
        first = make_tables(1)["products"]
        plan_a = cached_hash_plan(op, first, 2)
        swapped = make_tables(30)["products"]
        plan_b = cached_hash_plan(op, swapped, 2)
        reference = cached_hash_plan(op, swapped, 2)
        assert all(np.array_equal(a, b) for a, b in zip(plan_b, reference))
        assert any(
            not np.array_equal(a, b) for a, b in zip(plan_a, plan_b)
        )  # different tables, different plans

    def test_invalidate_drops_everything(self):
        from repro.parallel.shard import (
            cached_hash_plan,
            invalidate_shard_plans,
            shard_plan_cache_stats,
        )

        tables = make_tables(3)
        cached_hash_plan(("distinct", ("cat",)), tables["products"], 2)
        assert shard_plan_cache_stats()["entries"] > 0
        assert invalidate_shard_plans() > 0
        assert shard_plan_cache_stats()["entries"] == 0
