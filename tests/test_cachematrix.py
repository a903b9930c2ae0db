"""Tests for the d×w cache matrices (repro.sketches.cachematrix)."""

from __future__ import annotations

import random

import pytest

from repro.core.distinct import DistinctPruner
from repro.core.groupby import GroupByPruner
from repro.core.topn import TopNRandomizedPruner
from repro.errors import ConfigurationError
from repro.sketches.cachematrix import (
    CacheMatrix,
    KeyedAggregateMatrix,
    RollingMinMatrix,
    expected_distinct_pruning,
)


class TestCacheMatrix:
    def test_miss_then_hit(self):
        m = CacheMatrix(rows=4, cols=2)
        assert m.lookup_insert("a") is False
        assert m.lookup_insert("a") is True

    def test_no_false_positives(self):
        # The core DISTINCT property: a hit means the value was inserted.
        m = CacheMatrix(rows=8, cols=3, seed=5)
        rng = random.Random(1)
        inserted = set()
        for _ in range(2000):
            value = rng.randrange(500)
            hit = m.lookup_insert(value)
            if hit:
                assert value in inserted
            inserted.add(value)

    def test_same_value_same_row(self):
        m = CacheMatrix(rows=16, cols=2)
        assert m.row_of("v") == m.row_of("v")

    @pytest.mark.parametrize(
        "matrix",
        [
            CacheMatrix(rows=64, cols=2),
            KeyedAggregateMatrix(rows=64, cols=2, better=lambda a, b: a > b),
        ],
        ids=["cache", "keyed"],
    )
    def test_row_of_batch_on_mixed_int_float_sequence(self, matrix):
        values = [2.0, 3, 4.5, 7]
        m = matrix
        assert m.row_of_batch(values).tolist() == [m.row_of(v) for v in values]

    def test_eviction_after_w_new_values_in_row(self):
        m = CacheMatrix(rows=1, cols=2)  # single row: everything collides
        m.lookup_insert("a")
        m.lookup_insert("b")
        m.lookup_insert("c")  # evicts "a"
        assert m.lookup_insert("a") is False  # was evicted: miss again

    def test_lru_refreshes_on_hit(self):
        m = CacheMatrix(rows=1, cols=2, policy="lru")
        m.lookup_insert("a")
        m.lookup_insert("b")
        m.lookup_insert("a")  # hit: refresh "a" to front
        m.lookup_insert("c")  # evicts "b", not "a"
        assert m.lookup_insert("a") is True
        assert m.lookup_insert("b") is False

    def test_fifo_does_not_refresh(self):
        m = CacheMatrix(rows=1, cols=2, policy="fifo")
        m.lookup_insert("a")
        m.lookup_insert("b")
        m.lookup_insert("a")  # hit but no refresh under FIFO
        m.lookup_insert("c")  # evicts "a" (oldest by insertion)
        assert m.lookup_insert("a") is False

    def test_clear(self):
        m = CacheMatrix(rows=4, cols=2)
        m.lookup_insert("x")
        m.clear()
        assert "x" not in m.row_values(m.row_of("x"))
        assert m.occupancy() == 0

    def test_occupancy_counts(self):
        m = CacheMatrix(rows=8, cols=2)
        for i in range(5):
            m.lookup_insert(i)
        assert m.occupancy() == 5

    def test_row_values_recency_order(self):
        m = CacheMatrix(rows=1, cols=3)
        for v in ("a", "b", "c"):
            m.lookup_insert(v)
        assert m.row_values(0) == ["c", "b", "a"]

    def test_sram_accounting_matches_table2(self):
        m = CacheMatrix(rows=4096, cols=2)
        assert m.sram_bits() == 4096 * 2 * 64

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            CacheMatrix(rows=0, cols=1)
        with pytest.raises(ConfigurationError):
            CacheMatrix(rows=1, cols=0)
        with pytest.raises(ConfigurationError):
            CacheMatrix(rows=1, cols=1, policy="mru")


class TestRollingMinMatrix:
    def test_not_full_row_never_prunes(self):
        m = RollingMinMatrix(rows=1, cols=3)
        assert m.offer(5.0, 0) is False
        assert m.offer(1.0, 0) is False
        assert m.offer(0.5, 0) is False

    def test_prunes_below_full_row_minimum(self):
        m = RollingMinMatrix(rows=1, cols=2)
        m.offer(10.0, 0)
        m.offer(20.0, 0)
        assert m.offer(5.0, 0) is True

    def test_forwards_value_above_minimum_and_updates(self):
        m = RollingMinMatrix(rows=1, cols=2)
        m.offer(10.0, 0)
        m.offer(20.0, 0)
        assert m.offer(15.0, 0) is False  # displaces 10
        assert m.minimum(0) == 15.0
        assert m.offer(12.0, 0) is True  # now below new minimum

    def test_row_keeps_largest_w(self):
        m = RollingMinMatrix(rows=1, cols=3)
        for v in (5.0, 1.0, 9.0, 7.0, 3.0, 8.0):
            m.offer(v, 0)
        assert m.row_values(0) == [9.0, 8.0, 7.0]

    def test_equal_to_minimum_is_forwarded(self):
        # "Smaller than all w" is strict: a tie is not provably redundant.
        m = RollingMinMatrix(rows=1, cols=2)
        m.offer(10.0, 0)
        m.offer(20.0, 0)
        assert m.offer(10.0, 0) is False

    def test_paper_figure2_example(self):
        # Stream (7,4,7,5,3,2) on a 3x2 matrix: 3 pruned in a full row,
        # 2 not pruned (its row not full).  We reproduce by routing rows
        # explicitly the way Fig. 2 shows.
        m = RollingMinMatrix(rows=3, cols=2)
        assert m.offer(7.0, 2) is False
        assert m.offer(4.0, 2) is False
        assert m.offer(7.0, 0) is False
        assert m.offer(5.0, 0) is False
        assert m.offer(3.0, 2) is True  # row 2 holds (7, 4), both larger
        assert m.offer(2.0, 1) is False  # row 1 was empty

    def test_minimum_none_when_not_full(self):
        m = RollingMinMatrix(rows=1, cols=2)
        m.offer(1.0, 0)
        assert m.minimum(0) is None

    def test_row_out_of_range(self):
        m = RollingMinMatrix(rows=2, cols=2)
        with pytest.raises(ConfigurationError):
            m.offer(1.0, 2)

    def test_clear(self):
        m = RollingMinMatrix(rows=1, cols=2)
        m.offer(1.0, 0)
        m.clear()
        assert m.row_values(0) == []

    def test_pruned_value_leaves_state_untouched(self):
        m = RollingMinMatrix(rows=1, cols=2)
        m.offer(10.0, 0)
        m.offer(20.0, 0)
        before = m.row_values(0)
        m.offer(1.0, 0)
        assert m.row_values(0) == before


class TestKeyedAggregateMatrix:
    def test_first_occurrence_forwarded(self):
        m = KeyedAggregateMatrix(rows=4, cols=2, better=lambda a, b: a > b)
        assert m.observe("k", 5.0) is False

    def test_worse_value_pruned(self):
        m = KeyedAggregateMatrix(rows=4, cols=2, better=lambda a, b: a > b)
        m.observe("k", 5.0)
        assert m.observe("k", 3.0) is True

    def test_better_value_forwarded_and_cached(self):
        m = KeyedAggregateMatrix(rows=4, cols=2, better=lambda a, b: a > b)
        m.observe("k", 5.0)
        assert m.observe("k", 7.0) is False
        assert m.observe("k", 6.0) is True  # 6 < cached 7

    def test_equal_value_pruned_for_max(self):
        m = KeyedAggregateMatrix(rows=4, cols=2, better=lambda a, b: a > b)
        m.observe("k", 5.0)
        assert m.observe("k", 5.0) is True

    def test_min_aggregate_direction(self):
        m = KeyedAggregateMatrix(rows=4, cols=2, better=lambda a, b: a < b)
        m.observe("k", 5.0)
        assert m.observe("k", 7.0) is True
        assert m.observe("k", 3.0) is False

    def test_eviction_reintroduces_key(self):
        m = KeyedAggregateMatrix(rows=1, cols=1, better=lambda a, b: a > b)
        m.observe("a", 10.0)
        m.observe("b", 1.0)  # evicts "a"
        assert m.observe("a", 2.0) is False  # re-cached, forwarded

    def test_clear(self):
        m = KeyedAggregateMatrix(rows=2, cols=2, better=lambda a, b: a > b)
        m.observe("a", 1.0)
        m.clear()
        assert m.row_values(m.row_of("a")) == []

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            KeyedAggregateMatrix(rows=0, cols=1, better=lambda a, b: a > b)


def _full_cache_matrix():
    matrix = CacheMatrix(rows=1, cols=1)
    for value in (1, 2, 2):
        matrix.lookup_insert(value)
    return matrix, ("hits", "misses", "evictions")


def _full_rolling_min_matrix():
    matrix = RollingMinMatrix(rows=1, cols=1)
    for value in (5.0, 1.0):
        matrix.offer(value, 0)
    return matrix, ("offers", "rejected")


def _full_keyed_aggregate_matrix():
    matrix = KeyedAggregateMatrix(rows=1, cols=1, better=lambda a, b: a > b)
    for key, value in (("a", 1.0), ("b", 2.0), ("b", 3.0), ("b", 1.0)):
        matrix.observe(key, value)
    return matrix, ("hits", "updates", "inserts", "evictions")


@pytest.mark.parametrize(
    "build",
    [_full_cache_matrix, _full_rolling_min_matrix, _full_keyed_aggregate_matrix],
)
def test_clear_zeroes_every_counter_and_the_occupancy(build):
    matrix, counters = build()
    assert matrix.occupancy() == 1
    assert all(getattr(matrix, name) > 0 for name in counters)
    matrix.clear()
    assert matrix.occupancy() == 0
    assert {name: getattr(matrix, name) for name in counters} == dict.fromkeys(
        counters, 0
    )


@pytest.mark.parametrize(
    "make, entries",
    [
        (lambda: DistinctPruner(rows=1, cols=1), [1, 2, 2]),
        (lambda: TopNRandomizedPruner(n=1, rows=1, cols=1), [5.0, 1.0]),
        (
            lambda: GroupByPruner(aggregate="max", rows=1, cols=1),
            [("a", 1.0), ("b", 2.0), ("b", 3.0), ("b", 1.0)],
        ),
    ],
    ids=["distinct", "topn", "groupby"],
)
def test_health_gauges_read_zero_after_pruner_reset(make, entries):
    pruner = make()
    for entry in entries:
        pruner.process(entry)
    pruner.observe_health()
    assert all(value > 0 for value in pruner.metrics.gauge_values().values())
    pruner.reset()
    pruner.observe_health()
    assert set(pruner.metrics.gauge_values().values()) == {0.0}


class TestExpectedDistinctPruning:
    def test_paper_example(self):
        # D=15000, d=1000, w=24 -> expected ~58% of duplicates pruned.
        rate = expected_distinct_pruning(15_000, 1000, 24)
        assert rate == pytest.approx(0.58, abs=0.02)

    def test_caps_at_099(self):
        assert expected_distinct_pruning(10, 1000, 24) == pytest.approx(0.99)

    def test_zero_distinct(self):
        assert expected_distinct_pruning(0, 10, 10) == 1.0
