"""Tests for JOIN pruning (repro.core.join)."""

from __future__ import annotations

import pytest

from repro.core.base import Guarantee, PruneDecision
from repro.core.join import AsymmetricJoinPruner, JoinPruner, master_join
from repro.errors import ConfigurationError
from repro.workloads.synthetic import overlapping_key_sets

MB8 = 1024 * 1024 * 8


def _probe_all(pruner, left, right):
    left_survivors = [k for k in left if pruner.process(("A", k)) is PruneDecision.FORWARD]
    right_survivors = [k for k in right if pruner.process(("B", k)) is PruneDecision.FORWARD]
    return left_survivors, right_survivors


def master_outer_join(left_rows, right_rows, preserved="left"):
    """Exact LEFT/RIGHT OUTER join, the oracle of the OUTER pruner tests.

    Rows are ``(key, payload)`` pairs; unmatched preserved-side rows pair
    with ``None`` on the other side.
    """
    if preserved not in ("left", "right"):
        raise ConfigurationError(
            f"preserved side must be 'left' or 'right', got {preserved!r}"
        )
    if preserved == "right":
        flipped = master_outer_join(right_rows, left_rows, preserved="left")
        return [(key, l, r) for key, r, l in flipped]
    index = {}
    for key, payload in right_rows:
        index.setdefault(key, []).append(payload)
    output = []
    for key, payload in left_rows:
        matches = index.get(key)
        if matches:
            output.extend((key, payload, right_payload) for right_payload in matches)
        else:
            output.append((key, payload, None))
    return output


class TestJoinPruner:
    def _pruner(self, **kwargs):
        defaults = dict(left="A", right="B", memory_bits=MB8)
        defaults.update(kwargs)
        return JoinPruner(**defaults)

    def test_matching_key_forwarded(self):
        pruner = self._pruner()
        pruner.build([1, 2, 3], [2, 3, 4])
        assert pruner.process(("A", 2)) is PruneDecision.FORWARD

    def test_non_matching_key_pruned(self):
        pruner = self._pruner()
        pruner.build([1, 2, 3], [200, 300])
        assert pruner.process(("A", 1)) is PruneDecision.PRUNE

    def test_process_before_build_raises(self):
        pruner = self._pruner()
        with pytest.raises(ConfigurationError):
            pruner.process(("A", 1))

    def test_no_false_negatives_ever(self):
        # The correctness property: a matched entry is never pruned.
        left, right = overlapping_key_sets(2000, 2000, overlap=0.2, seed=3)
        pruner = self._pruner(memory_bits=1 << 16)  # small: many FPs
        pruner.build(left, right)
        left_surv, right_surv = _probe_all(pruner, left, right)
        right_set = set(right)
        left_set = set(left)
        assert all(k in left_surv or k not in right_set for k in left)
        # Every truly matching key must survive on both sides.
        matches = left_set & right_set
        assert matches <= set(left_surv)
        assert matches <= set(right_surv)

    @pytest.mark.parametrize("variant", ["bf", "rbf"])
    def test_join_output_equals_reference(self, variant):
        left, right = overlapping_key_sets(1500, 1500, overlap=0.1, seed=5)
        pruner = self._pruner(variant=variant)
        pruner.build(left, right)
        left_surv, right_surv = _probe_all(pruner, left, right)
        got = master_join(
            [(k, ("L", k)) for k in left_surv], [(k, ("R", k)) for k in right_surv]
        )
        expected = master_join(
            [(k, ("L", k)) for k in left], [(k, ("R", k)) for k in right]
        )
        assert sorted(got) == sorted(expected)

    def test_pruning_rate_reasonable_with_big_filter(self):
        left, right = overlapping_key_sets(3000, 3000, overlap=0.1, seed=7)
        pruner = self._pruner(memory_bits=MB8)
        pruner.build(left, right)
        left_surv, right_surv = _probe_all(pruner, left, right)
        survived = len(left_surv) + len(right_surv)
        # ~10% match; with 1MB+ filters FPs are negligible at this scale.
        assert survived <= len(left) + len(right)
        assert survived / (len(left) + len(right)) < 0.15

    def test_small_filter_lowers_pruning_not_correctness(self):
        left, right = overlapping_key_sets(2000, 2000, overlap=0.1, seed=9)
        big = self._pruner(memory_bits=MB8, seed=1)
        small = self._pruner(memory_bits=1 << 12, seed=1)
        big.build(left, right)
        small.build(left, right)
        big_surv = sum(len(s) for s in _probe_all(big, left, right))
        small_surv = sum(len(s) for s in _probe_all(small, left, right))
        assert small_surv >= big_surv

    def test_observe_build_streaming_interface(self):
        pruner = self._pruner()
        pruner.observe_build("A", 1)
        pruner.observe_build("B", 1)
        pruner.seal()
        assert pruner.process(("A", 1)) is PruneDecision.FORWARD

    def test_unknown_side_raises(self):
        pruner = self._pruner()
        pruner.build([1], [1])
        with pytest.raises(ConfigurationError):
            pruner.observe_build("C", 1)

    def test_same_side_names_rejected(self):
        with pytest.raises(ConfigurationError):
            JoinPruner(left="A", right="A")

    def test_reset(self):
        pruner = self._pruner()
        pruner.build([1], [1])
        pruner.reset()
        with pytest.raises(ConfigurationError):
            pruner.process(("A", 1))

    def test_guarantee(self):
        assert self._pruner().guarantee is Guarantee.DETERMINISTIC

    @pytest.mark.parametrize("variant,stages", [("bf", 2), ("rbf", 1)])
    def test_footprint_variant(self, variant, stages):
        fp = self._pruner(variant=variant).footprint()
        assert fp.stages == stages


class TestAsymmetricJoinPruner:
    def test_small_table_builds_filter(self):
        pruner = AsymmetricJoinPruner(memory_bits=1 << 16)
        count = pruner.build_from_small_table([1, 2, 3])
        assert count == 3
        assert pruner.process(2) is PruneDecision.FORWARD
        assert pruner.process(99) is PruneDecision.PRUNE

    def test_no_false_negatives(self):
        small = list(range(500))
        pruner = AsymmetricJoinPruner(memory_bits=1 << 14)
        pruner.build_from_small_table(small)
        assert all(pruner.process(k) is PruneDecision.FORWARD for k in small)

    def test_full_memory_gives_low_fp(self):
        small = list(range(1000))
        pruner = AsymmetricJoinPruner(memory_bits=MB8)
        pruner.build_from_small_table(small)
        fps = sum(
            1
            for k in range(10**6, 10**6 + 20_000)
            if pruner.process(k) is PruneDecision.FORWARD
        )
        assert fps / 20_000 < 0.001

    def test_process_before_build_raises(self):
        with pytest.raises(ConfigurationError):
            AsymmetricJoinPruner().process(1)

    def test_reset(self):
        pruner = AsymmetricJoinPruner()
        pruner.build_from_small_table([1])
        pruner.reset()
        with pytest.raises(ConfigurationError):
            pruner.process(1)


class TestMasterJoin:
    def test_inner_join_semantics(self):
        left = [(1, "a"), (2, "b")]
        right = [(2, "x"), (3, "y"), (2, "z")]
        result = master_join(left, right)
        assert sorted(result) == [(2, "b", "x"), (2, "b", "z")]

    def test_duplicate_left_keys_multiply(self):
        left = [(1, "a"), (1, "b")]
        right = [(1, "x")]
        assert len(master_join(left, right)) == 2

    def test_empty_sides(self):
        assert master_join([], [(1, "x")]) == []
        assert master_join([(1, "x")], []) == []


class TestOuterJoinPruner:
    def _pruner(self, preserved="left", **kwargs):
        from repro.core.join import OuterJoinPruner

        defaults = dict(left="A", right="B", memory_bits=1 << 16)
        defaults.update(kwargs)
        return OuterJoinPruner(preserved=preserved, **defaults)

    def test_preserved_side_never_pruned(self):
        pruner = self._pruner("left")
        pruner.build([1, 2, 3], [100, 200])
        # Left rows have no match, but LEFT OUTER must keep them all.
        for key in (1, 2, 3):
            assert pruner.process(("A", key)) is PruneDecision.FORWARD

    def test_other_side_pruned_on_miss(self):
        pruner = self._pruner("left")
        pruner.build([1, 2, 3], [3, 100])
        assert pruner.process(("B", 100)) is PruneDecision.PRUNE
        assert pruner.process(("B", 3)) is PruneDecision.FORWARD

    def test_right_outer_direction(self):
        pruner = self._pruner("right")
        pruner.build([1, 100], [1, 2])
        assert pruner.process(("B", 2)) is PruneDecision.FORWARD  # preserved
        assert pruner.process(("A", 100)) is PruneDecision.PRUNE

    def test_invalid_preserved_side(self):
        from repro.core.join import OuterJoinPruner

        with pytest.raises(ConfigurationError):
            OuterJoinPruner(left="A", right="B", preserved="middle")

    def test_outer_join_output_matches_reference(self):
        from repro.core.join import OuterJoinPruner

        left, right = overlapping_key_sets(800, 800, overlap=0.2, seed=13)
        pruner = OuterJoinPruner(left="A", right="B", memory_bits=1 << 16)
        pruner.build(left, right)
        left_surv = [k for k in left if pruner.process(("A", k)) is PruneDecision.FORWARD]
        right_surv = [k for k in right if pruner.process(("B", k)) is PruneDecision.FORWARD]
        got = master_outer_join(
            [(k, k) for k in left_surv], [(k, k) for k in right_surv]
        )
        expected = master_outer_join([(k, k) for k in left], [(k, k) for k in right])
        assert sorted(got, key=repr) == sorted(expected, key=repr)


class TestMasterOuterJoin:
    def test_left_unmatched_padded_with_none(self):
        result = master_outer_join([(1, "a"), (2, "b")], [(2, "x")])
        assert sorted(result, key=repr) == [(1, "a", None), (2, "b", "x")]

    def test_right_outer_flips(self):
        result = master_outer_join([(2, "b")], [(1, "x"), (2, "y")], preserved="right")
        assert sorted(result, key=repr) == [(1, None, "x"), (2, "b", "y")]

    def test_invalid_side(self):
        with pytest.raises(ConfigurationError):
            master_outer_join([], [], preserved="full")
