"""Tests for TOP N pruning (repro.core.topn)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.base import Guarantee, PruneDecision
from repro.core.topn import (
    TopNDeterministicPruner,
    TopNRandomizedPruner,
    master_topn,
)
from repro.core.sizing import TopNConfig
from repro.errors import ConfigurationError


def _check_contract(pruner, stream, n):
    """Assert top-N over survivors equals top-N over the stream."""
    survivors = pruner.survivors(stream)
    assert sorted(master_topn(survivors, n)) == sorted(master_topn(stream, n))
    return survivors


def _cutoff(pruner):
    """The threshold a deterministic pruner prunes below (None in warmup)."""
    return pruner._active_threshold() if pruner._thresholds else None


class TestDeterministic:
    def test_warmup_forwards_first_n(self):
        pruner = TopNDeterministicPruner(n=3)
        for value in (5.0, 1.0, 9.0):
            assert pruner.process(value) is PruneDecision.FORWARD

    def test_prunes_below_t0_right_after_warmup(self):
        # The first N entries are all >= t0, so t0 is active immediately.
        pruner = TopNDeterministicPruner(n=3, thresholds=1)
        for value in (5.0, 4.0, 9.0):
            pruner.process(value)
        assert _cutoff(pruner) == 4.0
        assert pruner.process(3.0) is PruneDecision.PRUNE
        assert pruner.process(4.5) is PruneDecision.FORWARD

    def test_thresholds_grow_exponentially(self):
        pruner = TopNDeterministicPruner(n=2, thresholds=3)
        pruner.process(4.0)
        pruner.process(4.0)  # t0 = 4; ladder 4, 8, 16
        assert pruner._thresholds == [4.0, 8.0, 16.0]

    def test_threshold_activation_requires_n_large_values(self):
        pruner = TopNDeterministicPruner(n=2, thresholds=3)
        pruner.process(4.0)
        pruner.process(4.0)
        pruner.process(9.0)  # one value >= 8: t1 not yet active
        assert _cutoff(pruner) == 4.0
        pruner.process(10.0)  # second value >= 8 (both also count for t0)
        # t0 active (counters saw 2 >= 4), t1 active (2 >= 8).
        assert _cutoff(pruner) == 8.0
        assert pruner.process(5.0) is PruneDecision.PRUNE

    def test_contract_on_random_streams(self):
        rng = random.Random(5)
        for trial in range(5):
            stream = [rng.uniform(1, 1000) for _ in range(2000)]
            pruner = TopNDeterministicPruner(n=50, thresholds=4)
            _check_contract(pruner, stream, 50)

    def test_contract_on_sorted_ascending(self):
        # Worst case: increasing stream - everything above the running
        # threshold, correctness must still hold.
        stream = [float(i) for i in range(1, 500)]
        pruner = TopNDeterministicPruner(n=20, thresholds=4)
        _check_contract(pruner, stream, 20)

    def test_contract_on_sorted_descending(self):
        stream = [float(i) for i in range(500, 1, -1)]
        pruner = TopNDeterministicPruner(n=20, thresholds=4)
        survivors = _check_contract(pruner, stream, 20)
        # Descending: after warmup + counter fills, most entries prunable.
        assert len(survivors) < len(stream)

    def test_nonpositive_t0_disables_ladder(self):
        pruner = TopNDeterministicPruner(n=2, thresholds=4)
        pruner.process(-5.0)
        pruner.process(3.0)  # t0 = -5 <= 0: single threshold only
        assert pruner._thresholds == [-5.0]

    def test_contract_with_negative_values(self):
        rng = random.Random(9)
        stream = [rng.uniform(-100, 100) for _ in range(1000)]
        pruner = TopNDeterministicPruner(n=30, thresholds=4)
        _check_contract(pruner, stream, 30)

    def test_guarantee(self):
        assert TopNDeterministicPruner(n=1).guarantee is Guarantee.DETERMINISTIC

    def test_footprint(self):
        fp = TopNDeterministicPruner(n=250, thresholds=4).footprint()
        assert fp.stages == 5
        assert fp.sram_bits == 5 * 64

    def test_reset(self):
        pruner = TopNDeterministicPruner(n=2, thresholds=2)
        for v in (1.0, 2.0, 3.0, 4.0):
            pruner.process(v)
        pruner.reset()
        assert _cutoff(pruner) is None
        assert pruner.stats.processed == 0

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            TopNDeterministicPruner(n=0)
        with pytest.raises(ConfigurationError):
            TopNDeterministicPruner(n=5, thresholds=0)


class TestRandomized:
    def test_theorem2_sizing_applied(self):
        # Paper: N=1000, delta=1e-4, d=600 -> w=16; d=8000 -> w=5.
        assert TopNRandomizedPruner(n=1000, rows=600, delta=1e-4).cols == 16
        assert TopNRandomizedPruner(n=1000, rows=8000, delta=1e-4).cols == 5

    def test_explicit_cols_override(self):
        pruner = TopNRandomizedPruner(n=10, rows=64, cols=3)
        assert pruner.cols == 3

    def test_guarantee(self):
        assert TopNRandomizedPruner(n=10, rows=512).guarantee is Guarantee.PROBABILISTIC

    def test_contract_holds_with_sized_matrix(self):
        # With Theorem 2 sizing at delta=1e-4 a single seeded run should
        # essentially never fail.
        rng = random.Random(21)
        stream = [rng.uniform(0, 10_000) for _ in range(20_000)]
        pruner = TopNRandomizedPruner(n=100, rows=1024, delta=1e-4, seed=3)
        _check_contract(pruner, stream, 100)

    def test_prunes_most_of_a_large_stream(self):
        rng = random.Random(31)
        stream = [rng.uniform(0, 1e6) for _ in range(30_000)]
        pruner = TopNRandomizedPruner(n=50, rows=128, delta=1e-3, seed=5)
        survivors = pruner.survivors(stream)
        assert len(survivors) < len(stream) * 0.25

    def test_theorem3_bound_on_survivors(self):
        # Random-order stream: survivors <= ~ w d ln(me/(wd)) in
        # expectation; single run allowed 1.5x slack.
        from repro.core.sizing import topn_expected_unpruned

        rng = random.Random(41)
        m = 40_000
        stream = [rng.random() for _ in range(m)]
        pruner = TopNRandomizedPruner(n=20, rows=64, cols=6, seed=7)
        survivors = pruner.survivors(stream)
        bound = topn_expected_unpruned(m, 64, 6)
        assert len(survivors) <= bound * 1.5

    def test_monotone_increasing_stream_never_prunes(self):
        # Adversarial case the paper concedes: all entries forwarded.
        stream = [float(i) for i in range(2000)]
        pruner = TopNRandomizedPruner(n=10, rows=16, cols=4, seed=1)
        survivors = pruner.survivors(stream)
        assert len(survivors) == len(stream)

    def test_optimal_constructor(self):
        config = TopNConfig.optimal(100, 1e-4)
        pruner = TopNRandomizedPruner(n=100, rows=config.rows, cols=config.cols, delta=1e-4)
        assert pruner.rows > 0 and pruner.cols > 0

    def test_seed_reproducibility(self):
        stream = [random.Random(1).uniform(0, 100) for _ in range(500)]
        a = TopNRandomizedPruner(n=5, rows=32, cols=3, seed=9).survivors(stream)
        b = TopNRandomizedPruner(n=5, rows=32, cols=3, seed=9).survivors(list(stream))
        assert a == b

    def test_footprint(self):
        fp = TopNRandomizedPruner(n=250, rows=4096, cols=4).footprint()
        assert fp.sram_bits == 4096 * 4 * 64
        assert fp.stages == 4

    def test_reset(self):
        pruner = TopNRandomizedPruner(n=5, rows=8, cols=2, seed=2)
        for v in (1.0, 2.0, 3.0):
            pruner.process(v)
        pruner.reset()
        assert pruner.stats.processed == 0

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            TopNRandomizedPruner(n=0, rows=16)


def _decisions_and_state(pruner, values, batch_size=None):
    """Forward flags, matrix cells and counters after streaming ``values``."""
    if batch_size is None:
        forward = [pruner.process(v) is PruneDecision.FORWARD for v in values]
    else:
        forward = []
        for start in range(0, len(values), batch_size):
            forward += pruner.process_batch(values[start : start + batch_size]).tolist()
    pruner.observe_health()
    matrix = pruner._matrix
    cells = [matrix.row_values(r) for r in range(matrix.rows)]
    counters = (pruner.stats.processed, pruner.stats.pruned, pruner._position)
    return forward, cells, counters, pruner.metrics.gauge_values()


class TestPositionRows:
    """An entry's row is a hash of its position in the pruner's stream."""

    @pytest.fixture(scope="class")
    def values(self):
        return np.random.default_rng(17).uniform(0, 1e6, 45_000)

    @pytest.fixture(scope="class")
    def per_entry(self, values):
        pruner = TopNRandomizedPruner(n=250, rows=4096, delta=1e-4, seed=4)
        return _decisions_and_state(pruner, values.tolist())

    @pytest.mark.parametrize("batch_size", [1, 7, 4096, 40_000])
    def test_batches_equal_the_per_entry_loop(self, values, per_entry, batch_size):
        pruner = TopNRandomizedPruner(n=250, rows=4096, delta=1e-4, seed=4)
        assert _decisions_and_state(pruner, values, batch_size) == per_entry

    def test_a_block_of_positions_hashes_alone_as_in_the_stream(self):
        pruner = TopNRandomizedPruner(n=10, rows=600, cols=4, seed=2)
        block = 1000
        stream = pruner._rows(0, 5 * block)
        for k in range(5):
            alone = pruner._rows(k * block, block)
            assert alone.tolist() == stream[k * block : (k + 1) * block].tolist()
        assert 0 <= stream.min() and stream.max() < 600

    def test_reset_restarts_at_position_zero_and_reboot_does_not(self):
        pruner = TopNRandomizedPruner(n=10, rows=64, cols=4, seed=6)
        first = pruner._rows(0, 40)
        pruner.process_batch(np.arange(30.0))
        pruner.reboot()
        assert pruner._position == 30
        assert pruner._row() == first[30]
        pruner.process(1.0)
        pruner.reset()
        assert pruner._position == 0
        assert pruner._row() == first[0]


class TestMasterTopN:
    def test_returns_descending(self):
        assert master_topn([3.0, 9.0, 1.0, 7.0], 2) == [9.0, 7.0]

    def test_short_input(self):
        assert master_topn([1.0], 5) == [1.0]

    def test_ties_kept(self):
        assert master_topn([5.0, 5.0, 1.0], 2) == [5.0, 5.0]
