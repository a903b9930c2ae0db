"""Tests for the register-level pipeline programs (repro.switch.programs)."""

from __future__ import annotations

import random

import pytest

from repro.core.distinct import DistinctPruner, master_distinct
from repro.core.topn import master_topn
from repro.errors import ConfigurationError, ResourceError
from repro.switch.pipeline import Pipeline
from repro.switch.programs import PipelineDistinct, PipelineTopNDeterministic
from repro.switch.resources import ResourceModel
from repro.workloads.synthetic import random_order_stream


def _pipeline(stages=8, alus=4, sram_kb=512):
    return Pipeline(
        ResourceModel(
            stages=stages,
            alus_per_stage=alus,
            sram_bits_per_stage=sram_kb * 1024 * 8,
            tcam_entries=64,
            phv_bits=512,
        )
    )


class TestPipelineDistinct:
    def test_first_occurrence_forwarded_duplicate_pruned(self):
        program = PipelineDistinct(_pipeline(), rows=16, cols=2)
        assert program.process(7) is True
        assert program.process(7) is False
        assert program.process(8) is True

    def test_no_false_positives(self):
        # The hardware variant may miss duplicates (evictions) but must
        # never prune a first occurrence.
        program = PipelineDistinct(_pipeline(), rows=8, cols=2)
        rng = random.Random(1)
        seen = set()
        for _ in range(2000):
            value = rng.randrange(300)
            forwarded = program.process(value)
            if not forwarded:
                assert value in seen
            seen.add(value)

    def test_distinct_contract_end_to_end(self):
        stream = random_order_stream(3000, 250, seed=5)
        program = PipelineDistinct(_pipeline(), rows=64, cols=3)
        survivors = program.survivors(stream)
        assert set(master_distinct(survivors)) == set(stream)

    def test_decisions_identical_to_sketch_lru(self):
        # The register program implements the paper's LRU exactly, so its
        # per-entry decisions must match the CacheMatrix model bit for bit
        # (same row hash, same replacement).
        stream = random_order_stream(5000, 200, seed=7)
        program = PipelineDistinct(_pipeline(), rows=256, cols=2)
        sketch = DistinctPruner(rows=256, cols=2, policy="lru")
        from repro.core.base import PruneDecision

        for value in stream:
            hardware = program.process(value)
            model = sketch.process(value) is PruneDecision.FORWARD
            assert hardware == model, f"divergence at value {value}"

    def test_value_zero_supported(self):
        # The +1 encoding must keep value 0 distinct from empty cells.
        program = PipelineDistinct(_pipeline(), rows=4, cols=2)
        assert program.process(0) is True
        assert program.process(0) is False

    def test_negative_values_rejected(self):
        program = PipelineDistinct(_pipeline(), rows=4, cols=2)
        with pytest.raises(ConfigurationError):
            program.process(-1)

    def test_too_many_cols_for_hardware(self):
        with pytest.raises(ConfigurationError):
            PipelineDistinct(_pipeline(stages=2), rows=4, cols=3)

    def test_sram_budget_enforced(self):
        # A row count whose register exceeds per-stage SRAM must fail.
        with pytest.raises(ResourceError):
            PipelineDistinct(_pipeline(sram_kb=1), rows=1 << 16, cols=1)

    def test_one_alu_op_per_stage(self):
        # The compare-and-shift is a single metered RMW per stage, so it
        # runs even on a 1-ALU-per-stage switch.
        program = PipelineDistinct(_pipeline(alus=1), rows=8, cols=2)
        assert program.process(1) is True

    def test_pipeline_stats_track_pruning(self):
        pipeline = _pipeline()
        program = PipelineDistinct(pipeline, rows=8, cols=2)
        for value in (1, 1, 2, 2, 3):
            program.process(value)
        assert pipeline.stats.packets == 5
        assert pipeline.stats.pruned == 2


class TestPipelineTopN:
    def test_warmup_forwards_first_n(self):
        program = PipelineTopNDeterministic(_pipeline(), n=3, thresholds=2)
        assert program.process(50) is True
        assert program.process(40) is True
        assert program.process(90) is True

    def test_below_t0_pruned_after_warmup(self):
        program = PipelineTopNDeterministic(_pipeline(), n=3, thresholds=2)
        for value in (50, 40, 90):
            program.process(value)
        assert program.process(10) is False  # < t0 = 40
        assert program.process(45) is True

    def test_ladder_activates_with_counters(self):
        program = PipelineTopNDeterministic(_pipeline(), n=2, thresholds=3)
        program.process(4)
        program.process(4)  # t0 = 4 (encoded 5); ladder 5, 10, 20 encoded
        # Feed large values to activate the second rung (threshold 2*t0).
        for value in (30, 30, 30):
            assert program.process(value) is True
        # Now a value between t0 and 2*t0 gets pruned by the active rung.
        assert program.process(6) is False

    def test_topn_contract_on_random_streams(self):
        rng = random.Random(9)
        for trial in range(3):
            stream = [rng.randrange(1, 100_000) for _ in range(2000)]
            program = PipelineTopNDeterministic(_pipeline(), n=50, thresholds=4)
            survivors = program.survivors(stream)
            assert sorted(master_topn(survivors, 50)) == sorted(
                master_topn(stream, 50)
            )

    def test_contract_on_descending_stream(self):
        stream = list(range(3000, 0, -1))
        program = PipelineTopNDeterministic(_pipeline(), n=20, thresholds=4)
        survivors = program.survivors(stream)
        assert sorted(master_topn(survivors, 20)) == sorted(master_topn(stream, 20))
        assert len(survivors) < len(stream) * 0.2  # descending prunes hard

    def test_needs_thresholds_plus_one_stages(self):
        with pytest.raises(ConfigurationError):
            PipelineTopNDeterministic(_pipeline(stages=3), n=5, thresholds=3)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            PipelineTopNDeterministic(_pipeline(), n=0)
        with pytest.raises(ConfigurationError):
            PipelineTopNDeterministic(_pipeline(), n=5, thresholds=0)

    def test_runs_on_two_alus_per_stage(self):
        # Warmup stage needs two RMW ops (count + min); rungs need one.
        program = PipelineTopNDeterministic(_pipeline(alus=2), n=3, thresholds=2)
        for value in (5, 6, 7, 1, 9):
            program.process(value)


class TestPipelineGroupBy:
    def _program(self, rows=16, cols=3, aggregate="max", alus=4):
        from repro.switch.programs import PipelineGroupBy

        return PipelineGroupBy(
            _pipeline(alus=alus), rows=rows, cols=cols, aggregate=aggregate
        )

    def test_first_occurrence_forwarded(self):
        program = self._program()
        assert program.process(1, 10) is True

    def test_non_improving_pruned_improving_forwarded(self):
        program = self._program()
        program.process(1, 10)
        assert program.process(1, 5) is False
        assert program.process(1, 20) is True

    def test_min_direction(self):
        program = self._program(aggregate="min")
        program.process(1, 10)
        assert program.process(1, 20) is False
        assert program.process(1, 5) is True

    def test_groupby_contract_end_to_end(self):
        from repro.core.groupby import master_groupby
        from repro.workloads.synthetic import keyed_values

        stream = [(k, int(v)) for k, v in keyed_values(3000, 80, seed=9)]
        program = self._program(rows=64, cols=4)
        survivors = [
            (k, float(v)) for k, v in stream if program.process(k, v)
        ]
        expected = master_groupby([(k, float(v)) for k, v in stream], "max")
        assert master_groupby(survivors, "max") == expected

    def test_pruning_justified_by_forwarded_entry(self):
        # Safety invariant: a pruned (key, value) must have a previously
        # forwarded entry of the same key with value >= it.
        import random

        rng = random.Random(7)
        program = self._program(rows=4, cols=2)
        best_forwarded = {}
        for _ in range(2000):
            key, value = rng.randrange(30), rng.randrange(1000)
            if program.process(key, value):
                best_forwarded[key] = max(best_forwarded.get(key, 0), value)
            else:
                assert best_forwarded.get(key, -1) >= value

    def test_two_alus_per_stage_suffice(self):
        program = self._program(alus=2)
        program.process(1, 1)

    def test_invalid_config(self):
        from repro.switch.programs import PipelineGroupBy

        with pytest.raises(ConfigurationError):
            PipelineGroupBy(_pipeline(), rows=0, cols=1)
        with pytest.raises(ConfigurationError):
            PipelineGroupBy(_pipeline(), rows=4, cols=2, aggregate="sum")
        with pytest.raises(ConfigurationError):
            self._program().process(-1, 1)


class TestPipelineCountMin:
    def _program(self, width=64, depth=3, seed=0):
        from repro.switch.programs import PipelineCountMin

        return PipelineCountMin(_pipeline(stages=4), width=width, depth=depth, seed=seed)

    def test_estimates_match_sketch_exactly(self):
        # Same hash family, same update rule: the pipeline Count-Min must
        # agree with the sketch model on every estimate.
        import random

        from repro.sketches.countmin import CountMinSketch

        rng = random.Random(11)
        program = self._program(width=32, depth=3, seed=4)
        sketch = CountMinSketch(width=32, depth=3, seed=4)
        for _ in range(2000):
            key, amount = rng.randrange(100), rng.randrange(1, 5)
            assert program.add(key, amount) == sketch.add(key, amount)

    def test_one_sided(self):
        import random

        rng = random.Random(13)
        program = self._program(width=16, depth=2)
        truth = {}
        for _ in range(1000):
            key = rng.randrange(60)
            program.add(key, 1)
            truth[key] = truth.get(key, 0) + 1
        # Estimates via a zero-amount probe never undercount.
        for key, count in truth.items():
            assert program.add(key, 0) >= count

    def test_negative_amount_rejected(self):
        with pytest.raises(ConfigurationError):
            self._program().add(1, -1)

    def test_depth_bounded_by_stages(self):
        from repro.switch.programs import PipelineCountMin

        with pytest.raises(ConfigurationError):
            PipelineCountMin(_pipeline(stages=2), width=8, depth=3)
