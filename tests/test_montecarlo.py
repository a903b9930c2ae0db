"""Tests for the Monte-Carlo guarantee harness (repro.analysis.montecarlo)."""

from __future__ import annotations

import random

import pytest

from repro.analysis.montecarlo import FailureEstimate, estimate_failure_rate
from repro.core.topn import TopNRandomizedPruner, master_topn
from repro.errors import ConfigurationError


class TestFailureEstimate:
    def test_rate(self):
        assert FailureEstimate(trials=50, failures=5).rate == 0.1


class TestEstimateFailureRate:
    def test_topn_guarantee_not_refuted(self):
        rng = random.Random(1)
        stream = [rng.random() for _ in range(3000)]
        n, delta = 30, 0.01
        expected = sorted(master_topn(stream, n))

        estimate = estimate_failure_rate(
            make_pruner=lambda seed: TopNRandomizedPruner(
                n=n, rows=512, delta=delta, seed=seed
            ),
            stream=stream,
            is_correct=lambda survivors: sorted(master_topn(survivors, n))
            == expected,
            trials=30,
        )
        # At most one failure in 30 trials: the 95% Wilson interval of 2/30
        # already starts above delta = 0.01, so more would refute the bound.
        assert estimate.failures <= 1

    def test_undersized_matrix_fails_often(self):
        # Sanity: a deliberately broken configuration (w forced to 1)
        # should fail at a rate the harness can measure.
        rng = random.Random(2)
        stream = [rng.random() for _ in range(2000)]
        n = 50
        expected = sorted(master_topn(stream, n))
        estimate = estimate_failure_rate(
            make_pruner=lambda seed: TopNRandomizedPruner(
                n=n, rows=8, cols=1, seed=seed
            ),
            stream=stream,
            is_correct=lambda survivors: sorted(master_topn(survivors, n))
            == expected,
            trials=20,
        )
        assert estimate.failures > 10

    def test_invalid_trials(self):
        with pytest.raises(ConfigurationError):
            estimate_failure_rate(lambda s: None, [], lambda s: True, trials=0)
