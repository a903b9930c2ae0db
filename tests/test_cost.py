"""Tests for the completion-time cost model (repro.engine.cost)."""

from __future__ import annotations

import pytest

from repro.engine.cluster import PhaseVolume, RunResult
from repro.engine.cost import Breakdown, CostModel
from repro.errors import ConfigurationError


def _result(op_kind, streamed, forwarded, workers=5):
    return RunResult(
        query="test",
        output=None,
        phases=[PhaseVolume("stream", streamed=streamed, forwarded=forwarded)],
        used_cheetah=True,
        workers=workers,
        op_kind=op_kind,
    )


def first_run_speedup(model, result):
    """Cold Spark time / Cheetah time."""
    return model.spark_breakdown(result, first_run=True).total / model.cheetah_breakdown(result).total


class TestBreakdown:
    def test_total_overlaps_network_and_master(self):
        b = Breakdown(worker=1.0, network=3.0, master=2.0, setup=0.5)
        assert b.total == 0.5 + 1.0 + 3.0


class TestCheetahModel:
    def test_network_scales_with_streamed(self):
        model = CostModel()
        small = model.cheetah_breakdown(_result("distinct", 10_000, 100))
        large = model.cheetah_breakdown(_result("distinct", 100_000, 1000))
        assert large.network == pytest.approx(small.network * 10)

    def test_master_scales_with_forwarded(self):
        model = CostModel()
        low = model.cheetah_breakdown(_result("distinct", 100_000, 1000))
        high = model.cheetah_breakdown(_result("distinct", 100_000, 50_000))
        assert high.master > low.master * 10

    def test_master_penalty_superlinear(self):
        # Fig. 9: doubling the unpruned share more than doubles master time.
        model = CostModel()
        t1 = model.cheetah_breakdown(_result("distinct", 100_000, 10_000)).master
        t2 = model.cheetah_breakdown(_result("distinct", 100_000, 20_000)).master
        assert t2 > 2 * t1

    def test_worker_time_divided_by_workers(self):
        model = CostModel()
        few = model.cheetah_breakdown(_result("distinct", 100_000, 100, workers=2))
        many = model.cheetah_breakdown(_result("distinct", 100_000, 100, workers=10))
        assert few.worker == pytest.approx(many.worker * 5)

    def test_faster_nic_halves_network_bound_time(self):
        # §8.2.3: at 10G Cheetah is network-bound; 20G gives ~2x.
        result = _result("groupby", 2_000_000, 2_000)
        t10 = CostModel(network_gbps=10).cheetah_breakdown(result)
        t20 = CostModel(network_gbps=20).cheetah_breakdown(result)
        assert t10.network == pytest.approx(2 * t20.network)
        assert (t10.total - t10.setup) / (t20.total - t20.setup) > 1.5

    def test_entry_packing_reduces_network(self):
        # §9 extension: 4 entries per packet -> 1/4 of the frames.
        single = CostModel(entries_per_packet=1)
        packed = CostModel(entries_per_packet=4)
        result = _result("distinct", 1_000_000, 100)
        assert packed.cheetah_breakdown(result).network == pytest.approx(
            single.cheetah_breakdown(result).network / 4
        )

    def test_unknown_op_kind_raises(self):
        model = CostModel()
        with pytest.raises(ConfigurationError):
            model.cheetah_breakdown(_result("sort", 100, 10))


class TestSparkModel:
    def test_first_run_slower(self):
        model = CostModel()
        result = _result("groupby", 1_000_000, 1_000)
        first = model.spark_breakdown(result, first_run=True)
        later = model.spark_breakdown(result, first_run=False)
        assert first.total > later.total

    def test_spark_insensitive_to_network_rate(self):
        # Fig. 8: Spark is compute-bound, so a faster NIC barely helps.
        result = _result("groupby", 2_000_000, 2_000)
        t10 = CostModel(network_gbps=10).spark_breakdown(result)
        t20 = CostModel(network_gbps=20).spark_breakdown(result)
        assert t10.total == pytest.approx(t20.total, rel=0.05)

    def test_aggregation_costlier_than_filter(self):
        model = CostModel()
        agg = model.spark_breakdown(_result("groupby", 1_000_000, 100))
        filt = model.spark_breakdown(_result("filter", 1_000_000, 100))
        assert agg.worker > filt.worker


class TestSpeedups:
    """The Fig. 5 shape: Cheetah wins on aggregation, ~even on filtering."""

    def test_cheetah_wins_on_groupby(self):
        model = CostModel()
        result = _result("groupby", 2_000_000, 5_000)
        assert model.speedup(result) > 1.3

    def test_cheetah_wins_more_on_first_run(self):
        model = CostModel()
        result = _result("groupby", 2_000_000, 5_000)
        assert first_run_speedup(model, result) > model.speedup(result)

    def test_filtering_is_not_a_clear_win(self):
        # BigData A: serialization outweighs the saved scan per the paper.
        model = CostModel()
        result = _result("filter", 2_000_000, 50_000)
        assert model.speedup(result) < 1.3

    def test_gap_widens_with_scale(self):
        # Fig. 6a: the Cheetah advantage grows with data size.
        model = CostModel()
        small = model.speedup(_result("distinct", 500_000, 500))
        large = model.speedup(_result("distinct", 4_000_000, 4_000))
        assert large > small

    def test_speedup_stable_across_worker_counts(self):
        # Fig. 6b: roughly the same improvement factor per worker count.
        model = CostModel()
        speedups = [
            model.speedup(_result("distinct", 2_000_000, 2_000, workers=w))
            for w in (2, 4, 8)
        ]
        assert max(speedups) / min(speedups) < 1.6


class TestValidation:
    def test_invalid_network_rate(self):
        with pytest.raises(ConfigurationError):
            CostModel(network_gbps=0)

    def test_invalid_packing(self):
        with pytest.raises(ConfigurationError):
            CostModel(entries_per_packet=0)
