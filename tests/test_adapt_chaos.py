"""Chaos-style exactness properties for the adaptive runtime.

The superset-safety argument (paper §4) says a remediation action can
only ever cost performance, never correctness: every pruner variant and
sizing forwards at least the entries the output needs.  This suite
hammers that claim — random sequences of remediation actions staged at
batch boundaries (the only place :class:`AdaptiveConfigStore` promotes
them) across DISTINCT, TOP N and GROUP BY, solo and packed, at
parallelism 1 and 2 — and requires bit-exact agreement with the
config-independent reference on every pass.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.adapt import AdaptiveConfigStore
from repro.adapt.scenario import drift_tables, run_scenario
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.plan import DistinctOp, GroupByOp, Query, TopNOp
from repro.engine.reference import run_reference
from repro.engine.table import Table

# ---------------------------------------------------------------------------
# Workload: one table, three stateful operators sharing it.

ROWS = 1200


def make_tables(rng: random.Random):
    """A seeded table with repeat-heavy columns for each pruner kind."""
    return {
        "T": Table(
            "T",
            {
                "v": np.array([rng.randrange(200) for _ in range(ROWS)]),
                "score": np.array([rng.random() * 1e4 for _ in range(ROWS)]),
                "k": np.array([rng.randrange(40) for _ in range(ROWS)]),
                "amount": np.array(
                    [rng.randrange(10_000) for _ in range(ROWS)]
                ),
            },
        )
    }


def make_queries():
    return [
        Query(DistinctOp("T", ("v",))),
        Query(TopNOp("T", "score", 10)),
        Query(GroupByOp("T", "k", "amount", "max")),
    ]


# Every remediation axis the planner can take, plus shrinks (the forced
# regression direction) and the revert-to-base sentinel.  All must be
# output-neutral.
MUTATIONS = [
    lambda c: replace(c, distinct_rows=c.distinct_rows * 2),
    lambda c: replace(c, distinct_rows=max(8, c.distinct_rows // 2)),
    lambda c: replace(
        c, distinct_policy="fifo" if c.distinct_policy == "lru" else "lru"
    ),
    lambda c: replace(c, topn_randomized=not c.topn_randomized),
    lambda c: replace(c, topn_rows=c.topn_rows * 2),
    lambda c: replace(c, groupby_rows=c.groupby_rows * 2),
    None,  # revert the signature to the base configuration
]


def base_config(parallelism: int) -> ClusterConfig:
    # Deliberately undersized sketches so pruners actually evict and the
    # variants behave differently — exactness must hold regardless.
    return ClusterConfig(
        distinct_rows=64,
        distinct_cols=2,
        topn_rows=64,
        groupby_rows=32,
        parallelism=parallelism,
    )


# ---------------------------------------------------------------------------
# The property: any action sequence, applied at batch boundaries, keeps
# solo and packed outputs bit-exact vs the reference.


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_remediation_actions_preserve_exactness(seed, parallelism):
    rng = random.Random(seed)
    tables = make_tables(rng)
    queries = make_queries()
    expected = {q.cache_key(): run_reference(q, tables) for q in queries}

    store = AdaptiveConfigStore(base_config(parallelism))
    cluster = Cluster(workers=2, config=base_config(parallelism))
    cluster.adaptive = store

    for _ in range(4):
        for query in queries:
            result = cluster.run(query, tables)
            assert result.output == expected[query.cache_key()]
        packed = cluster.run_packed(queries, tables)
        for query, result in zip(queries, packed.results):
            assert result.output == expected[query.cache_key()]
        # Stage the next "remediation" at the batch boundary: the
        # cluster is idle, so promotion is immediate.
        target = rng.choice(queries).cache_key()
        mutation = rng.choice(MUTATIONS)
        if mutation is None:
            store.stage(target, None)
        else:
            store.stage(target, mutation(store.effective(target)))


def test_stage_during_lease_keeps_pass_pinned_and_exact():
    """A pass keeps its leased config; the swap lands on the next pass."""
    rng = random.Random(99)
    tables = make_tables(rng)
    query = make_queries()[0]
    signature = query.cache_key()
    expected = run_reference(query, tables)

    store = AdaptiveConfigStore(base_config(parallelism=1))
    cluster = Cluster(workers=2, config=base_config(parallelism=1))
    cluster.adaptive = store

    lease = store.lease(signature)
    pinned = lease.__enter__()
    try:
        resized = replace(store.base_config, distinct_rows=512)
        store.stage(signature, resized)
        # The inflight lease fences the promotion off.
        assert store.active(signature) is None
        assert pinned is None
    finally:
        lease.__exit__(None, None, None)
    # Lease exit promoted the staged override; both sides stay exact.
    assert store.active(signature) == resized
    assert cluster.run(query, tables).output == expected


@pytest.mark.parametrize("parallelism", [1, 2])
def test_closed_loop_remediation_is_exact_end_to_end(parallelism):
    """The real loop — detectors, engine ticks, hot-swaps — stays exact.

    A small drift scenario (working set 64 → 512 over a 128-entry
    cache matrix) with per-run verification: at least one action must be
    applied and every output must equal the reference.
    """
    result = run_scenario(
        drift_tables(
            pre_runs=6,
            post_runs=14,
            pre_working_set=64,
            post_working_set=512,
            repeats=4,
            seed=parallelism,
        ),
        base_config=replace(
            base_config(parallelism), distinct_rows=64, distinct_cols=2
        ),
        workers=2,
        adaptive=True,
        verify=True,
    )
    assert result.all_exact
    outcomes = result.outcomes()
    assert outcomes.get("applied", 0) >= 1
    # Whatever the canary decided, the active config is a real override
    # or a clean revert — never a half-promoted staging.
    assert not result.store.pending(result.signature)
