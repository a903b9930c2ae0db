"""Tests for HAVING pruning (repro.core.having)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.base import Guarantee, PruneDecision
from repro.core.having import (
    HavingPruner,
    master_having,
    reference_having,
    second_pass,
)
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.switch.compiler import footprint_having
from repro.workloads.synthetic import keyed_values


def _int_stream(length, keys, seed=0, hi=10):
    rng = random.Random(seed)
    return [(rng.randrange(keys), float(rng.randrange(1, hi))) for _ in range(length)]


def _run(pruner, stream):
    candidates = set()
    forwarded = 0
    for entry in stream:
        if pruner.process(entry) is PruneDecision.FORWARD:
            candidates.add(entry[0])
            forwarded += 1
    return candidates, forwarded


class TestHavingSumPath:
    def test_candidates_are_superset_of_answer(self):
        stream = _int_stream(5000, 50, seed=1)
        pruner = HavingPruner(threshold=400, width=64, depth=3)  # narrow: FPs
        candidates, _ = _run(pruner, stream)
        truth = set(reference_having(stream, 400))
        assert truth <= candidates

    def test_master_completion_removes_false_positives(self):
        stream = _int_stream(5000, 50, seed=2)
        pruner = HavingPruner(threshold=400, width=64, depth=3)
        candidates, _ = _run(pruner, stream)
        answer = set(master_having(candidates, stream, 400))
        assert answer == set(reference_having(stream, 400))

    def test_wide_sketch_few_false_positives(self):
        stream = _int_stream(5000, 200, seed=3)
        wide = HavingPruner(threshold=200, width=4096, depth=3)
        narrow = HavingPruner(threshold=200, width=16, depth=3)
        wide_cand, _ = _run(wide, stream)
        narrow_cand, _ = _run(narrow, list(stream))
        assert len(wide_cand) <= len(narrow_cand)

    def test_dedupe_suppresses_repeat_candidates(self):
        # Every entry crosses the threshold; the dedupe stage forwards one.
        stream = [("hot", 100.0)] * 100
        _, forwarded = _run(HavingPruner(threshold=50, width=64), stream)
        assert forwarded == 1

    def test_count_aggregate(self):
        stream = [("a", 1.0)] * 10 + [("b", 1.0)] * 2
        pruner = HavingPruner(threshold=5, aggregate="count", width=64)
        candidates, _ = _run(pruner, stream)
        assert "a" in candidates
        answer = set(master_having(candidates, stream, 5, "count"))
        assert answer == {"a"}

    def test_negative_sum_contribution_rejected(self):
        pruner = HavingPruner(threshold=10, aggregate="sum")
        with pytest.raises(UnsupportedOperationError):
            pruner.process(("k", -5.0))

    def test_less_than_direction_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            HavingPruner(threshold=-10, aggregate="sum")

    def test_contract_on_zipf_stream(self):
        stream = [(k, float(int(v))) for k, v in keyed_values(8000, 100, seed=4)]
        pruner = HavingPruner(threshold=1500, width=512, depth=3)
        candidates, _ = _run(pruner, stream)
        answer = set(master_having(candidates, stream, 1500))
        assert answer == set(reference_having(stream, 1500))


class TestHavingMaxMinPath:
    def test_max_forwards_only_passing_entries(self):
        pruner = HavingPruner(threshold=10, aggregate="max")
        assert pruner.process(("k", 5.0)) is PruneDecision.PRUNE
        assert pruner.process(("k", 15.0)) is PruneDecision.FORWARD

    def test_max_with_dedupe_one_per_key(self):
        pruner = HavingPruner(threshold=10, aggregate="max")
        stream = [("k", 20.0)] * 5 + [("j", 30.0)]
        candidates, fwd = _run(pruner, stream)
        assert candidates == {"k", "j"}
        assert fwd == 2

    def test_min_direction(self):
        pruner = HavingPruner(threshold=10, aggregate="min")
        assert pruner.process(("k", 5.0)) is PruneDecision.FORWARD
        assert pruner.process(("k", 50.0)) is PruneDecision.PRUNE

    def test_max_contract(self):
        stream = _int_stream(3000, 40, seed=6, hi=100)
        pruner = HavingPruner(threshold=80, aggregate="max", width=64)
        candidates, _ = _run(pruner, stream)
        answer = set(master_having(candidates, stream, 80, "max"))
        assert answer == set(reference_having(stream, 80, "max"))

    def test_negative_threshold_allowed_for_max(self):
        pruner = HavingPruner(threshold=-5, aggregate="max")
        assert pruner.process(("k", 0.0)) is PruneDecision.FORWARD


class TestConfiguration:
    def test_unknown_aggregate(self):
        with pytest.raises(ConfigurationError):
            HavingPruner(threshold=1, aggregate="median")

    def test_guarantee(self):
        assert HavingPruner(threshold=1).guarantee is Guarantee.DETERMINISTIC

    def test_footprint_includes_dedupe_stage(self):
        pruner = HavingPruner(threshold=1, width=1024, depth=3)
        assert pruner.footprint().stages > footprint_having(width=1024, depth=3).stages

    def test_footprint_having_sram(self):
        fp = HavingPruner(threshold=1, width=1024, depth=3).footprint()
        assert fp.sram_bits == 1024 * 3 * 64 + 1024 * 2 * 64  # Count-Min + dedupe

    def test_reset(self):
        pruner = HavingPruner(threshold=5, width=64)
        pruner.process(("k", 10.0))
        pruner.reset()
        assert pruner.stats.processed == 0
        # Sketch cleared: the same entry crosses the threshold afresh.
        assert pruner.process(("k", 10.0)) is PruneDecision.FORWARD


class TestMasterHaving:
    def test_exact_totals_filter_candidates(self):
        data = [("a", 10.0), ("a", 10.0), ("b", 1.0)]
        assert set(master_having({"a", "b"}, data, 15)) == {"a"}

    def test_only_candidates_considered(self):
        data = [("a", 100.0), ("b", 100.0)]
        assert set(master_having({"a"}, data, 50)) == {"a"}

    def test_reference_having(self):
        data = [("a", 10.0), ("b", 3.0), ("a", 10.0)]
        assert set(reference_having(data, 15)) == {"a"}

    def test_invalid_aggregate(self):
        with pytest.raises(ConfigurationError):
            master_having({"a"}, [("a", 1.0)], 0, "median")

    @pytest.mark.parametrize("aggregate", ["sum", "count", "max", "min"])
    @pytest.mark.parametrize("string_keys", [False, True])
    def test_column_form_totals_are_bit_equal_to_the_entry_loop(
        self, aggregate, string_keys
    ):
        """The ``(keys, values)`` array form aggregates in stream order:
        each key's total is the entry loop's to the last bit — a threshold
        at the loop's total flips the key, one ulp inside it does not."""
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 12, 4000)
        if string_keys:
            keys = np.array([f"k{key}" for key in keys])
        values = rng.lognormal(2.0, 1.5, 4000)  # sums depend on the order
        data = list(zip(keys.tolist(), values.tolist()))
        candidates = set(keys[:40].tolist())
        for key in sorted(candidates):
            mine = [value for k, value in data if k == key]
            reduce = {"sum": lambda v: sum(v, 0.0), "count": len, "max": max, "min": min}
            total = reduce[aggregate](mine)
            toward = math.inf if aggregate == "min" else -math.inf
            for threshold, passes in (
                (total, False),
                (math.nextafter(total, toward), True),
            ):
                for form in (data, (keys, values)):
                    kept = master_having(candidates, form, threshold, aggregate)
                    assert (key in kept) is passes
        everything = master_having(None, (keys, values), 50.0, aggregate)
        assert set(everything) == set(reference_having(data, 50.0, aggregate))

    @pytest.mark.parametrize("span", [12, 1 << 40])
    def test_second_pass_counts_the_candidate_rows_it_groups(self, span):
        """``second_pass`` returns master_having's keys and, from the same
        grouping, the rows of candidate keys (all rows without candidates;
        none for an empty candidate set), for count-table and sorted keys."""
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 12, 3000) * (span // 12) - 5
        values = rng.lognormal(2.0, 1.0, 3000)
        for candidates in (keys[:1], keys[:30], np.unique(keys), keys[:0]):
            chosen = np.unique(candidates)
            output, refetched = second_pass(chosen, keys, values, 150.0, "sum")
            assert output == master_having(chosen, (keys, values), 150.0, "sum")
            assert refetched == int(np.isin(keys, chosen).sum())
        output, refetched = second_pass(None, keys, values, 150.0, "sum")
        assert sorted(output) == sorted(master_having(None, (keys, values), 150.0))
        assert refetched == len(keys)
