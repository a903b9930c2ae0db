"""Tests for the Count-Min sketch (repro.sketches.countmin)."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.sketches.countmin import CountMinSketch


class TestBasics:
    def test_single_add_estimates_exactly(self):
        cms = CountMinSketch(width=256, depth=3)
        cms.add("k", 5)
        assert cms.estimate("k") == 5

    def test_unseen_key_estimates_zero_when_empty(self):
        cms = CountMinSketch(width=64, depth=3)
        assert cms.estimate("never") == 0

    def test_add_returns_new_estimate(self):
        cms = CountMinSketch(width=256, depth=3)
        assert cms.add("k", 2) >= 2
        assert cms.add("k", 3) >= 5

    def test_default_amount_is_one(self):
        cms = CountMinSketch(width=64, depth=2)
        cms.add("k")
        assert cms.estimate("k") >= 1

    def test_total_tracks_sum(self):
        cms = CountMinSketch(width=64, depth=2)
        cms.update([("a", 1), ("b", 2), ("a", 3)])
        assert cms.total == 6

    def test_clear(self):
        cms = CountMinSketch(width=64, depth=2)
        cms.add("k", 10)
        cms.clear()
        assert cms.estimate("k") == 0
        assert cms.total == 0

    def test_negative_update_rejected(self):
        cms = CountMinSketch(width=64, depth=2)
        with pytest.raises(ConfigurationError):
            cms.add("k", -1)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(width=0, depth=3)
        with pytest.raises(ConfigurationError):
            CountMinSketch(width=10, depth=0)

    def test_sram_accounting(self):
        cms = CountMinSketch(width=1024, depth=3)
        assert cms.sram_bits() == 1024 * 3 * 64


class TestOneSidedError:
    """The invariant HAVING correctness rests on: estimate >= truth."""

    @pytest.mark.parametrize("conservative", [False, True])
    def test_estimate_never_undercounts(self, conservative):
        rng = random.Random(42)
        cms = CountMinSketch(width=128, depth=3, conservative=conservative)
        truth = {}
        for _ in range(5000):
            key = rng.randrange(400)
            amount = rng.randrange(1, 10)
            cms.add(key, amount)
            truth[key] = truth.get(key, 0) + amount
        for key, true_total in truth.items():
            assert cms.estimate(key) >= true_total

    def test_conservative_is_at_most_plain(self):
        rng = random.Random(7)
        plain = CountMinSketch(width=64, depth=3, seed=5)
        cons = CountMinSketch(width=64, depth=3, conservative=True, seed=5)
        stream = [(rng.randrange(200), rng.randrange(1, 5)) for _ in range(3000)]
        plain.update(stream)
        cons.update(stream)
        for key in range(200):
            assert cons.estimate(key) <= plain.estimate(key)

    def test_wide_sketch_is_nearly_exact(self):
        cms = CountMinSketch(width=1 << 14, depth=3)
        for i in range(100):
            cms.add(i, i + 1)
        exact = sum(1 for i in range(100) if cms.estimate(i) == i + 1)
        assert exact >= 98

