"""Tests for the OPT oracles and baseline models (repro.analysis/baselines)."""

from __future__ import annotations

import pytest

from repro.analysis.opt import (
    opt_distinct_rate,
    opt_distinct_unpruned,
    opt_groupby_unpruned,
    opt_having_unpruned,
    opt_join_rate,
    opt_join_unpruned,
    opt_skyline_unpruned,
    opt_topn_rate,
    opt_topn_unpruned,
)
from repro.baselines.hardware import TABLE3, profile, switch_vs_server_throughput
from repro.baselines.netaccel import DRAIN_SETUP_S, NetAccelModel
from repro.errors import ConfigurationError


class TestOptDistinct:
    def test_counts_first_occurrences(self):
        assert opt_distinct_unpruned([1, 2, 1, 3, 2]) == 3

    def test_rate(self):
        assert opt_distinct_rate([1, 1, 1, 1]) == 0.75

    def test_empty(self):
        assert opt_distinct_rate([]) == 0.0

    def test_upper_bounds_cheetah(self):
        # No switch algorithm can beat OPT on the same stream.
        from repro.core.distinct import DistinctPruner
        from repro.workloads.synthetic import random_order_stream

        stream = random_order_stream(5000, 500, seed=1)
        pruner = DistinctPruner(rows=256, cols=2)
        survivors = pruner.survivors(stream)
        assert len(survivors) >= opt_distinct_unpruned(stream)


class TestOptTopN:
    def test_running_top_n_membership(self):
        # Stream 1..10 ascending with n=2: every arrival enters the top 2.
        assert opt_topn_unpruned(list(range(1, 11)), 2) == 10

    def test_descending_stream_only_first_n(self):
        assert opt_topn_unpruned(list(range(10, 0, -1)), 3) == 3

    def test_rate(self):
        assert opt_topn_rate(list(range(10, 0, -1)), 5) == 0.5

    def test_upper_bounds_cheetah(self):
        import random

        from repro.core.topn import TopNRandomizedPruner

        rng = random.Random(3)
        stream = [rng.random() for _ in range(5000)]
        pruner = TopNRandomizedPruner(n=20, rows=64, cols=4, seed=1)
        survivors = pruner.survivors(stream)
        assert len(survivors) >= opt_topn_unpruned(stream, 20)


class TestOptSkyline:
    def test_forwards_non_dominated_at_arrival(self):
        points = [(1.0, 1.0), (2.0, 2.0), (0.5, 0.5)]
        # (1,1) new; (2,2) not dominated; (0.5,0.5) dominated by both.
        assert opt_skyline_unpruned(points) == 2

    def test_all_incomparable(self):
        points = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        assert opt_skyline_unpruned(points) == 3


class TestOptGroupBy:
    def test_improvements_counted(self):
        stream = [("a", 1.0), ("a", 2.0), ("a", 1.5), ("b", 1.0)]
        assert opt_groupby_unpruned(stream, "max") == 3

    def test_min_direction(self):
        stream = [("a", 5.0), ("a", 3.0), ("a", 4.0)]
        assert opt_groupby_unpruned(stream, "min") == 2


class TestOptJoin:
    def test_only_matches_forwarded(self):
        left, right = [1, 2, 3], [3, 4]
        # Left matches: {3} -> 1 entry; right matches: {3} -> 1 entry.
        assert opt_join_unpruned(left, right) == 2

    def test_rate(self):
        assert opt_join_rate([1, 2], [3, 4]) == 1.0

    def test_empty(self):
        assert opt_join_rate([], []) == 0.0


class TestOptHaving:
    def test_one_forward_per_qualifying_key(self):
        stream = [("a", 6.0), ("a", 6.0), ("b", 1.0)]
        assert opt_having_unpruned(stream, 10) == 1  # "a" crosses at 12


class TestNetAccelModel:
    def test_drain_time_linear_in_result(self):
        model = NetAccelModel()
        small = model.drain_time(1000)
        large = model.drain_time(100_000)
        assert large > small * 10

    def test_drain_has_setup_floor(self):
        assert DRAIN_SETUP_S > 0
        assert NetAccelModel().drain_time(0) == pytest.approx(DRAIN_SETUP_S)

    def test_switch_cpu_slower_than_server(self):
        # Figs. 12/13: the switch CPU loses to the master server.
        model = NetAccelModel()
        for n in (10_000, 100_000, 1_000_000):
            assert model.switch_cpu_time(n) > model.server_time(n)

    def test_cheetah_tail_beats_netaccel_drain(self):
        # Fig. 7: pipelined streaming beats drain for any result size.
        model = NetAccelModel()
        for result_size in (1000, 10_000, 100_000):
            assert model.cheetah_total(result_size) < model.drain_time(result_size)

    def test_negative_counts_rejected(self):
        model = NetAccelModel()
        with pytest.raises(ConfigurationError):
            model.drain_time(-1)
        with pytest.raises(ConfigurationError):
            model.switch_cpu_time(-1)
        with pytest.raises(ConfigurationError):
            model.server_time(-1)


class TestHardwareCatalog:
    def test_table3_has_five_rows(self):
        assert len(TABLE3) == 5

    def test_profile_lookup(self):
        assert profile("tofino v2").throughput_gbps_high == 12_800

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            profile("abacus")

    def test_switch_throughput_two_orders_above_server(self):
        assert switch_vs_server_throughput() >= 100

    def test_switch_latency_submicrosecond(self):
        assert profile("Tofino V2").latency_us_high <= 1.0
