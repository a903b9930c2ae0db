"""Tests for the fused compiled pipeline (:mod:`repro.switch.fuse`).

The contract under test: a packed program that compiles to a
:class:`~repro.switch.fuse.FusedProgram` produces *byte-identical
outputs and pruner counters* to the per-pruner batched path at every
batch size; unfusable programs fall back with a labelled
``fused_fallback_total`` counter and still produce correct results;
shared digests are computed once per batch; the fused kernels read
shared-memory columns as views end to end (zero copies before the
survivor row-id gather); and cached serving results are frozen
read-only views.
"""

from __future__ import annotations

import itertools

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
    Query,
    TopNOp,
)
from repro.engine.dataplane import DEFAULT_BATCH
from repro.engine.reference import run_reference
from repro.engine.table import Table
from repro.switch.fuse import (
    FusedProgram,
    clear_fused_cache,
    fused_cache_stats,
    plan_fused,
)

N_ROWS = 600

#: Every operator kind with a fused single-pass kernel.
FUSED_KINDS = ("filter", "topn", "distinct", "groupby")


def _make_query(kind: str) -> Query:
    return {
        "filter": Query(CountOp("T", (col("price") > 150.0) & (col("qty") <= 30))),
        "select": Query(FilterOp("T", col("price") > 400.0)),
        "topn": Query(TopNOp("T", "price", 25)),
        "distinct": Query(DistinctOp("T", ("url",))),
        "groupby": Query(GroupByOp("T", "agent", "price", "max")),
    }[kind]


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(17)
    return {
        "T": Table(
            "T",
            {
                "price": np.round(rng.uniform(0.0, 500.0, N_ROWS), 2),
                "qty": rng.integers(0, 50, N_ROWS),
                "url": rng.integers(0, 40, N_ROWS),
                "agent": rng.integers(0, 12, N_ROWS),
            },
        )
    }


def _config(fused: bool, batch_size, **overrides) -> ClusterConfig:
    return ClusterConfig(
        batch_size=batch_size, fused=fused, topn_randomized=False, **overrides
    )


def _counters(registry, prefix: str = "") -> dict:
    """Counter samples, optionally restricted to a name prefix, with the
    fused-only telemetry dropped (fused runs add it by design)."""
    return {
        key: value
        for key, value in registry.counter_values().items()
        if key.startswith(prefix) and not key.startswith("fused_")
    }


# ---------------------------------------------------------------------------
# Equivalence: fused vs per-pruner, every kernel pair, every batch size
# ---------------------------------------------------------------------------


class TestFusedEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    @pytest.mark.parametrize(
        "kinds", list(itertools.combinations(FUSED_KINDS, 2)), ids="+".join
    )
    def test_packed_pairs_match_per_pruner(self, tables, kinds, batch_size):
        queries = [_make_query(kind) for kind in kinds]
        expected = [run_reference(query, tables) for query in queries]
        fused = Cluster(workers=3, config=_config(True, batch_size)).run_packed(
            queries, tables
        )
        plain = Cluster(workers=3, config=_config(False, batch_size)).run_packed(
            queries, tables
        )
        assert [r.output for r in fused.results] == expected
        assert [r.output for r in plain.results] == expected
        assert fused.total_streamed == plain.total_streamed == N_ROWS
        assert fused.total_forwarded == plain.total_forwarded
        # The fused kernels funnel through each pruner's own
        # process_batch, so per-query pruner counters are identical.
        for fused_result, plain_result in zip(fused.results, plain.results):
            assert _counters(fused_result.metrics) == _counters(plain_result.metrics)
        assert _counters(fused.metrics) == _counters(plain.metrics)

    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_all_four_kernels_packed(self, tables, batch_size):
        queries = [_make_query(kind) for kind in FUSED_KINDS]
        expected = [run_reference(query, tables) for query in queries]
        fused = Cluster(workers=3, config=_config(True, batch_size)).run_packed(
            queries, tables
        )
        assert [r.output for r in fused.results] == expected
        assert "fused_batches_total{}" in fused.metrics.counter_values()

    def test_packed_fuses_by_default_without_batch_size(self, tables):
        # batch_size=None: the packed path still fuses, using
        # DEFAULT_BATCH internally.
        queries = [_make_query("filter"), _make_query("topn")]
        result = Cluster(workers=3, config=_config(True, None)).run_packed(
            queries, tables
        )
        assert [r.output for r in result.results] == [
            run_reference(query, tables) for query in queries
        ]
        counters = result.metrics.counter_values()
        expected_batches = -(-N_ROWS // 3 // DEFAULT_BATCH) * 3
        assert counters["fused_batches_total{}"] == expected_batches

    @pytest.mark.parametrize("kind", FUSED_KINDS + ("select",))
    def test_single_pass_run_matches(self, tables, kind):
        query = _make_query(kind)
        expected = run_reference(query, tables)
        fused = Cluster(workers=3, config=_config(True, 64)).run(query, tables)
        plain = Cluster(workers=3, config=_config(False, 64)).run(query, tables)
        assert fused.output == expected
        assert plain.output == expected
        assert _counters(fused.metrics, "pruner") == _counters(plain.metrics, "pruner")
        assert "fused_batches_total{}" in fused.metrics.counter_values()
        assert "fused_batches_total{}" not in plain.metrics.counter_values()


# ---------------------------------------------------------------------------
# Fallbacks: unfusable programs take the per-pruner path, counted by reason
# ---------------------------------------------------------------------------


def _fallbacks(registry) -> dict:
    return {
        key: value
        for key, value in registry.counter_values().items()
        if key.startswith("fused_fallback_total")
    }


class TestFallbacks:
    def test_randomized_topn_falls_back(self, tables):
        # topn_randomized is the config default: per-entry RNG draws are
        # sequentially coupled, so the program must not fuse.
        queries = [Query(TopNOp("T", "price", 25)), _make_query("filter")]
        config = ClusterConfig(batch_size=64, fused=True, topn_randomized=True)
        result = Cluster(workers=3, config=config).run_packed(queries, tables)
        assert result.results[1].output == run_reference(queries[1], tables)
        counters = result.metrics.counter_values()
        assert counters['fused_fallback_total{reason=randomized-topn}'] == 1
        assert "fused_batches_total{}" not in counters

    def test_multi_column_distinct_falls_back(self, tables):
        query = Query(DistinctOp("T", ("url", "agent")))
        result = Cluster(workers=3, config=_config(True, 64)).run_packed(
            [query], tables
        )
        assert result.results[0].output == run_reference(query, tables)
        counters = result.metrics.counter_values()
        assert counters['fused_fallback_total{reason=multi-column-key}'] == 1

    def test_fingerprint_distinct_falls_back(self, tables):
        config = _config(True, 64, distinct_fingerprint=True)
        result = Cluster(workers=3, config=config).run_packed(
            [Query(DistinctOp("T", ("url",)))], tables
        )
        counters = result.metrics.counter_values()
        assert counters['fused_fallback_total{reason=fingerprint-distinct}'] == 1

    def test_where_stage_falls_back(self, tables):
        # A stateful operator behind a WHERE stage needs the two-stage
        # per-pruner path (only WHERE-passing rows may reach the pruner).
        query = Query(DistinctOp("T", ("url",)), where=col("price") > 100.0)
        result = Cluster(workers=3, config=_config(True, 64)).run(query, tables)
        assert result.output == run_reference(query, tables)
        counters = result.metrics.counter_values()
        assert counters['fused_fallback_total{reason=where-stage}'] == 1
        assert "fused_batches_total{}" not in counters

    def test_unsupported_operator_plan(self):
        query = Query(HavingOp("T", "url", "price", 10.0))
        plan = plan_fused([query], ("url", "price"), _config(True, 64))
        assert not plan.fused
        assert plan.fallback_reason == "unsupported-operator"

    def test_fallback_plan_cannot_bind(self):
        plan = plan_fused(
            [Query(TopNOp("T", "price", 5))],
            ("price",),
            ClusterConfig(topn_randomized=True),
        )
        assert plan.fallback_reason == "randomized-topn"
        with pytest.raises(ValueError, match="fallback"):
            FusedProgram(plan, [object()])

    def test_fused_disabled_by_config(self, tables):
        query = _make_query("filter")
        result = Cluster(workers=3, config=_config(False, 64)).run(query, tables)
        assert result.output == run_reference(query, tables)
        counters = result.metrics.counter_values()
        assert "fused_batches_total{}" not in counters
        assert not _fallbacks(result.metrics)


# ---------------------------------------------------------------------------
# Plan memoization and digest sharing
# ---------------------------------------------------------------------------


class TestPlanCacheAndSharing:
    def test_plans_are_memoized(self):
        clear_fused_cache()
        queries = [_make_query("filter"), _make_query("topn")]
        config = _config(True, 64)
        first = plan_fused(queries, ("price", "qty"), config)
        second = plan_fused(queries, ("price", "qty"), config)
        assert second is first
        assert fused_cache_stats() == {"hits": 1, "misses": 1}

    def test_plan_key_covers_config_knobs(self):
        clear_fused_cache()
        queries = [_make_query("topn")]
        deterministic = plan_fused(queries, ("price",), _config(True, 64))
        randomized = plan_fused(
            queries, ("price",), ClusterConfig(batch_size=64, topn_randomized=True)
        )
        assert deterministic.fused
        assert randomized.fallback_reason == "randomized-topn"
        assert fused_cache_stats() == {"hits": 0, "misses": 2}

    def test_digest_shared_across_kernels(self, tables):
        # DISTINCT(url) and GROUP BY url share the canonical uint64 pass
        # of the url column; the share is surfaced as a counter.
        queries = [
            Query(DistinctOp("T", ("url",))),
            Query(GroupByOp("T", "url", "price", "max")),
        ]
        result = Cluster(workers=3, config=_config(True, 64)).run_packed(
            queries, tables
        )
        assert [r.output for r in result.results] == [
            run_reference(query, tables) for query in queries
        ]
        counters = result.metrics.counter_values()
        assert counters["fused_digest_shared_total{}"] > 0

    def test_report_exposes_compile_caches(self, tables):
        result = Cluster(workers=3, config=_config(True, 64)).run(
            _make_query("filter"), tables
        )
        report = result.report()
        assert set(report["compile_cache"]) == {"fit_pack", "fused_plans"}
        assert set(report["compile_cache"]["fused_plans"]) == {"hits", "misses"}
        packed = Cluster(workers=3, config=_config(True, 64)).run_packed(
            [_make_query("filter"), _make_query("topn")], tables
        )
        assert "compile_cache" in packed.report()


# ---------------------------------------------------------------------------
# Zero-copy: shared-memory columns flow to kernels as views
# ---------------------------------------------------------------------------


class TestZeroCopy:
    def test_kernels_read_shared_memory_views(self, tables):
        from repro.parallel.shm import SharedColumnStore, attach_columns

        table = tables["T"]
        columns = ("price", "qty")
        source = {name: np.ascontiguousarray(table.column(name)) for name in columns}
        store = SharedColumnStore(source)
        try:
            attached, close = attach_columns(store.handle())
            try:
                query = _make_query("filter")
                config = _config(True, 128)
                cluster = Cluster(workers=1, config=config)
                plan = plan_fused([query], columns, config)
                assert plan.fused
                program = FusedProgram(plan, [cluster._build_pruner(query, tables)])
                program.trace = []
                survivors = []
                arrays = [attached[name] for name in columns]
                for start in range(0, N_ROWS, 128):
                    slices = tuple(a[start : start + 128] for a in arrays)
                    masks, _ = program.run_batch(slices)
                    survivors.append(np.flatnonzero(masks[0]) + start)
                # Every slice the kernels saw is a view over the shared
                # segment — zero column copies before the row-id gather.
                for slices in program.trace:
                    for sliced, base in zip(slices, arrays):
                        assert np.shares_memory(sliced, base)
                ids = np.concatenate(survivors)
                predicate = query.operator.predicate
                expected = np.flatnonzero(
                    (source["price"] > 150.0) & (source["qty"] <= 30)
                )
                assert np.array_equal(ids, expected), predicate
            finally:
                close()
        finally:
            store.close()

    def test_worker_shard_uses_fused_kernel(self, tables):
        from repro.parallel.shm import SharedColumnStore, attach_columns
        from repro.parallel.worker import run_shard

        table = tables["T"]
        columns = ["price", "qty"]
        source = {name: np.ascontiguousarray(table.column(name)) for name in columns}
        store = SharedColumnStore(source)
        try:
            spec = {
                "handle": store.handle(),
                "query": _make_query("filter"),
                "columns": columns,
                "sides": [(columns, ("bounds", 0, N_ROWS))],
                "config": _config(True, 128),
                "batch": 128,
                "shard": 0,
            }
            result = run_shard(spec)
            expected = np.flatnonzero(
                (source["price"] > 150.0) & (source["qty"] <= 30)
            )
            assert np.array_equal(result["out"][0], expected)
            assert result["volumes"] == [(N_ROWS, len(expected))]
            counter_names = {c["name"] for c in result["metrics"]["counters"]}
            assert "fused_batches_total" in counter_names
        finally:
            store.close()

    def test_parallel_run_matches_sequential(self, tables):
        # End to end: the process-parallel path (fused worker kernels
        # over shared memory) agrees with the sequential fused path.
        for kind in FUSED_KINDS:
            query = _make_query(kind)
            sequential = Cluster(workers=3, config=_config(True, 128)).run(
                query, tables
            )
            parallel = Cluster(
                workers=3, config=_config(True, 128, parallelism=2)
            ).run(query, tables)
            assert parallel.output == sequential.output == run_reference(query, tables)


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

        cache = ResultCache(max_entries=4)
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

    def test_program_cache_fused_plan_warm_path(self):
        from repro.serve.cache import ProgramCache

        clear_fused_cache()
        cache = ProgramCache(max_entries=8)
        queries = [_make_query("filter"), _make_query("topn")]
        config = _config(True, 64)
        first = cache.fused_plan(queries, ("price", "qty"), config)
        second = cache.fused_plan(queries, ("price", "qty"), config)
        assert second is first
        assert cache.stats()["hits"] == 1
