"""Tests for the single-pass step (:mod:`repro.switch.fuse`).

Every batched single-pass run — solo, packed, pool shard, chaos segment,
baseline — streams its column slices through one
:class:`~repro.switch.fuse.FusedProgram`.  The contract under test: solo
and packed runs equal ``run_reference`` for every single-pass kind (and
every pair of kinds) at every batch size; a packed query's pruner
counters are its solo run's; a ``batch_size=None`` packed slot streams
batches, not entries; and the step reads shared-memory columns as views
end to end (zero copies before the survivor row-id gather).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.topn import TopNRandomizedPruner
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.dataplane import DEFAULT_BATCH
from repro.engine.expressions import col
from repro.engine.plan import CountOp, DistinctOp, FilterOp, GroupByOp, Query, TopNOp
from repro.engine.reference import run_reference
from repro.engine.table import Table
from repro.switch.fuse import FusedProgram, plan_fused

N_ROWS = 600

#: Every packable single-pass kind: its query and the config knobs it
#: needs.  The last three cover the entry shapes the first four do not:
#: a negated, randomly placed TOP N, fingerprints and tuple keys.
KINDS = {
    "filter": (Query(CountOp("T", (col("price") > 150.0) & (col("qty") <= 30))), {}),
    "topn": (Query(TopNOp("T", "price", 25)), {"topn_randomized": False}),
    "distinct": (Query(DistinctOp("T", ("url",))), {"distinct_fingerprint": False}),
    "groupby": (Query(GroupByOp("T", "agent", "price", "max")), {}),
    "rtopn": (
        Query(TopNOp("T", "qty", 10, descending=False)), {"topn_randomized": True}
    ),
    "fpdistinct": (Query(DistinctOp("T", ("agent",))), {"distinct_fingerprint": True}),
    "mdistinct": (Query(DistinctOp("T", ("url", "agent"))), {}),
}

#: Solo-only kinds: a projection, and a stateful operator behind a WHERE
#: stage (packed queries must fold WHERE into the operator).
SOLO_KINDS = {
    "select": (Query(FilterOp("T", col("price") > 400.0)), {}),
    "where": (Query(DistinctOp("T", ("url",)), where=col("price") > 100.0), {}),
}


def _knobs(kinds):
    """The kinds' merged config knobs, or None when two disagree."""
    merged = {}
    for kind in kinds:
        for knob, value in KINDS[kind][1].items():
            if merged.setdefault(knob, value) != value:
                return None
    return merged


PAIRS = [pair for pair in itertools.combinations(KINDS, 2) if _knobs(pair) is not None]


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


def _pruner_counters(registry) -> dict:
    return {
        key: value
        for key, value in registry.counter_values().items()
        if key.startswith("pruner")
    }


def _count_calls(monkeypatch, cls, name: str) -> list:
    """Wrap ``cls.name`` so each call appends to the returned list."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


# ---------------------------------------------------------------------------
# Equivalence: every kind and pair of kinds, every batch size
# ---------------------------------------------------------------------------


class TestFusedEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    @pytest.mark.parametrize("kinds", PAIRS, ids="+".join)
    def test_packed_pairs_match_per_pruner(self, tables, kinds, batch_size):
        queries = [KINDS[kind][0] for kind in kinds]
        config = ClusterConfig(batch_size=batch_size, **_knobs(kinds))
        packed = Cluster(workers=3, config=config).run_packed(queries, tables)
        solo = [Cluster(workers=3, config=config).run(q, tables) for q in queries]
        assert [r.output for r in packed.results] == [
            run_reference(query, tables) for query in queries
        ]
        assert packed.total_streamed == N_ROWS
        forwarded = [result.total_forwarded for result in solo]
        assert max(forwarded) <= packed.total_forwarded <= sum(forwarded)
        # One pass, one prune bit per query: each packed pruner decides
        # exactly as it does alone.
        for packed_result, solo_result in zip(packed.results, solo):
            assert _pruner_counters(packed_result.metrics) == _pruner_counters(
                solo_result.metrics
            )

    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_all_four_kernels_packed(self, tables, batch_size):
        kinds = ("filter", "topn", "distinct", "groupby")
        queries = [KINDS[kind][0] for kind in kinds]
        config = ClusterConfig(batch_size=batch_size, **_knobs(kinds))
        result = Cluster(workers=3, config=config).run_packed(queries, tables)
        assert [r.output for r in result.results] == [
            run_reference(query, tables) for query in queries
        ]
        assert result.total_streamed == N_ROWS

    def test_packed_fuses_by_default_without_batch_size(self, tables, monkeypatch):
        # batch_size=None: a packed slot streams DEFAULT_BATCH slices.
        batches = _count_calls(monkeypatch, FusedProgram, "run_batch")
        queries = [KINDS["filter"][0], KINDS["topn"][0]]
        config = ClusterConfig(topn_randomized=False)
        result = Cluster(workers=3, config=config).run_packed(queries, tables)
        assert [r.output for r in result.results] == [
            run_reference(query, tables) for query in queries
        ]
        assert len(batches) == -(-N_ROWS // 3 // DEFAULT_BATCH) * 3

    def test_default_randomized_topn_packed_slot_streams_batches(
        self, tables, monkeypatch
    ):
        # The out-of-box config (batch_size=None, randomized TOP N): the
        # packed slot takes the batch kernel, never the per-entry loop.
        entries = _count_calls(monkeypatch, TopNRandomizedPruner, "process")
        batches = _count_calls(monkeypatch, TopNRandomizedPruner, "process_batch")
        queries = [Query(TopNOp("T", "price", 25)), KINDS["filter"][0]]
        result = Cluster(workers=3).run_packed(queries, tables)
        assert [r.output for r in result.results] == [
            run_reference(query, tables) for query in queries
        ]
        assert batches and not entries

    @pytest.mark.parametrize("kind", list(KINDS) + list(SOLO_KINDS))
    def test_single_pass_run_matches(self, tables, kind):
        query, knobs = {**KINDS, **SOLO_KINDS}[kind]
        expected = run_reference(query, tables)
        per_entry = Cluster(workers=3, config=ClusterConfig(**knobs)).run(query, tables)
        assert per_entry.output == expected
        for batch_size in (1, 7, 4096):
            config = ClusterConfig(batch_size=batch_size, **knobs)
            result = Cluster(workers=3, config=config).run(query, tables)
            assert result.output == expected, batch_size
            assert _pruner_counters(result.metrics) == _pruner_counters(
                per_entry.metrics
            ), batch_size


# ---------------------------------------------------------------------------
# Zero-copy: shared-memory columns flow to the pruners as views
# ---------------------------------------------------------------------------


class _SpyPruner:
    """Records every entry batch it is handed and keeps every row."""

    def __init__(self) -> None:
        self.seen = []

    def process_batch(self, entries):
        self.seen.append(entries)
        first = entries[0] if isinstance(entries, tuple) else entries
        return np.ones(len(first), dtype=bool)


def _arrays(entries):
    return list(entries) if isinstance(entries, tuple) else [entries]


class TestZeroCopy:
    def test_kernels_read_shared_memory_views(self, tables):
        from repro.parallel.shm import SharedColumnStore, attach_columns

        table = tables["T"]
        columns = ("price", "qty", "agent")
        source = {name: np.ascontiguousarray(table.column(name)) for name in columns}
        store = SharedColumnStore(source)
        try:
            attached, close = attach_columns(store.handle())
            try:
                queries = [KINDS[kind][0] for kind in ("filter", "topn", "groupby")]
                cluster = Cluster(workers=1, config=ClusterConfig(batch_size=128))
                spies = [_SpyPruner(), _SpyPruner()]
                program = FusedProgram(
                    plan_fused(queries, columns),
                    [cluster._build_pruner(queries[0], tables, columns=columns)] + spies,
                )
                survivors = []
                arrays = [attached[name] for name in columns]
                for start in range(0, N_ROWS, 128):
                    slices = tuple(a[start : start + 128] for a in arrays)
                    masks, _ = program.run_batch(slices)
                    survivors.append(np.flatnonzero(masks[0]) + start)
                # Every array the pruners saw (the TOP N value column, the
                # GROUP BY key and float64 value) is a view over the shared
                # segment — zero column copies before the row-id gather.
                for spy in spies:
                    assert len(spy.seen) == -(-N_ROWS // 128)
                    for entries in spy.seen:
                        for array in _arrays(entries):
                            assert any(np.shares_memory(array, base) for base in arrays)
                expected = np.flatnonzero(
                    (source["price"] > 150.0) & (source["qty"] <= 30)
                )
                assert np.array_equal(np.concatenate(survivors), expected)
            finally:
                close()
        finally:
            store.close()

    def test_worker_shard_uses_fused_kernel(self, tables, monkeypatch):
        from repro.parallel.shm import SharedColumnStore
        from repro.parallel.worker import run_shard

        batches = _count_calls(monkeypatch, FusedProgram, "run_batch")
        table = tables["T"]
        columns = ["price", "qty"]
        source = {name: np.ascontiguousarray(table.column(name)) for name in columns}
        store = SharedColumnStore(source)
        try:
            spec = {
                "handle": store.handle(),
                "query": KINDS["filter"][0],
                "columns": columns,
                "sides": [(columns, ("bounds", 0, N_ROWS))],
                "config": ClusterConfig(batch_size=128),
                "batch": 128,
                "shard": 0,
            }
            result = run_shard(spec)
            expected = np.flatnonzero(
                (source["price"] > 150.0) & (source["qty"] <= 30)
            )
            assert np.array_equal(result["out"][0], expected)
            assert result["volumes"] == [(N_ROWS, len(expected))]
            assert len(batches) == -(-N_ROWS // 128)
        finally:
            store.close()

    def test_parallel_run_matches_sequential(self, tables):
        # End to end: pool shards (the step over shared memory) agree
        # with the in-process step.
        for query, knobs in KINDS.values():
            sequential = Cluster(
                workers=3, config=ClusterConfig(batch_size=128, **knobs)
            ).run(query, tables)
            parallel = Cluster(
                workers=3, config=ClusterConfig(batch_size=128, parallelism=2, **knobs)
            ).run(query, tables)
            assert parallel.output == sequential.output == run_reference(query, tables)
