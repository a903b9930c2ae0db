"""Tests for the workload generators (repro.workloads)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads import bigdata, synthetic, tpch

from tests.test_skyline import correlated_points


class TestSynthetic:
    def test_random_order_stream_covers_all_distinct(self):
        stream = synthetic.random_order_stream(1000, 200, seed=1)
        assert len(stream) == 1000
        assert len(set(stream)) == 200

    def test_random_order_stream_deterministic(self):
        a = synthetic.random_order_stream(500, 50, seed=2)
        b = synthetic.random_order_stream(500, 50, seed=2)
        assert a == b

    def test_random_order_stream_validation(self):
        with pytest.raises(ConfigurationError):
            synthetic.random_order_stream(10, 20)
        with pytest.raises(ConfigurationError):
            synthetic.random_order_stream(10, 0)

    def test_zipf_keys_skewed(self):
        keys = synthetic.zipf_keys(10_000, 100, skew=1.5, seed=3)
        counts = np.bincount(keys, minlength=100)
        # Rank 0 should be much more frequent than rank 50.
        assert counts[0] > counts[50] * 5

    def test_revenue_stream_positive_heavy_tailed(self):
        values = synthetic.revenue_stream(5000, seed=4)
        assert all(v > 0 for v in values)
        assert max(values) > np.median(values) * 10

    def test_uniform_points_shape(self):
        points = synthetic.uniform_points(100, dims=3, seed=5)
        assert len(points) == 100
        assert all(len(p) == 3 for p in points)

    def test_correlated_points_have_larger_skylines(self):
        from repro.analysis.opt import opt_skyline_unpruned
        from repro.core.skyline import master_skyline

        uniform = synthetic.uniform_points(2000, dims=2, seed=6)
        anti = correlated_points(2000, dims=2, seed=6)
        assert len(master_skyline(anti)) > len(master_skyline(uniform))

    def test_keyed_values(self):
        pairs = synthetic.keyed_values(1000, 50, seed=7)
        assert len(pairs) == 1000
        assert all(0 <= k < 50 and v > 0 for k, v in pairs)

    def test_overlapping_key_sets(self):
        left, right = synthetic.overlapping_key_sets(1000, 800, overlap=0.25, seed=8)
        assert len(left) == 1000 and len(right) == 800
        shared = set(left) & set(right)
        assert len(shared) == int(800 * 0.25)

    def test_overlap_validation(self):
        with pytest.raises(ConfigurationError):
            synthetic.overlapping_key_sets(10, 10, overlap=1.5)

    def test_prefixes(self):
        stream = list(range(100))
        parts = synthetic.prefixes(stream, [0.1, 0.5, 1.0])
        assert [len(p) for p in parts] == [10, 50, 100]


class TestBigData:
    @pytest.fixture(scope="class")
    def scale(self):
        return bigdata.BigDataScale(
            rankings_rows=2000, uservisits_rows=4000, distinct_urls=800
        )

    def test_rankings_schema(self, scale):
        table = bigdata.rankings(scale)
        assert set(table.column_names) == {"pageURL", "pageRank", "avgDuration"}
        assert table.num_rows == 2000

    def test_rankings_nearly_sorted(self, scale):
        # The paper notes pageRank is nearly sorted: check strong global
        # order via rank correlation with the row index.
        from scipy.stats import spearmanr

        ranks = bigdata.rankings(scale)["pageRank"]
        rho, _ = spearmanr(np.arange(len(ranks)), ranks)
        assert rho > 0.95

    def test_uservisits_schema(self, scale):
        table = bigdata.uservisits(scale)
        assert "adRevenue" in table and "userAgent" in table
        assert table.num_rows == 4000

    def test_user_agents_skewed(self, scale):
        agents = bigdata.uservisits(scale)["userAgent"]
        counts = np.bincount(agents)
        assert counts.max() > np.median(counts[counts > 0]) * 3

    def test_join_overlap_partial(self, scale):
        tables = bigdata.tables(scale)
        urls = set(tables["Rankings"]["pageURL"].tolist())
        dests = set(tables["UserVisits"]["destURL"].tolist())
        assert urls & dests            # some overlap for the join
        assert dests - urls            # and some unmatched keys to prune

    def test_permuted_changes_order(self, scale):
        table = bigdata.rankings(scale)
        shuffled = bigdata.permuted(table, seed=1)
        assert shuffled["pageRank"].tolist() != table["pageRank"].tolist()

    def test_benchmark_queries_complete(self):
        queries = bigdata.benchmark_queries()
        assert len(queries) == 7
        assert set(queries) == {
            "Q1-filter", "Q2-distinct", "Q3-skyline", "Q4-topn",
            "Q5-groupby", "Q6-join", "Q7-having",
        }

    def test_deterministic_generation(self, scale):
        a = bigdata.uservisits(scale, seed=9)
        b = bigdata.uservisits(scale, seed=9)
        assert a["adRevenue"].tolist() == b["adRevenue"].tolist()


class TestTpch:
    @pytest.fixture(scope="class")
    def scale(self):
        return tpch.TpchScale(customers=300)

    def test_cardinality_ratios(self, scale):
        assert scale.orders == 3000
        assert scale.lineitems == 12_000

    def test_tables_schemas(self, scale):
        tables = tpch.tables(scale)
        assert tables["customer"].num_rows == 300
        assert tables["orders"].num_rows == 3000
        assert tables["lineitem"].num_rows == 12_000

    def test_q3_filters_reduce_rows(self, scale):
        base = tpch.tables(scale)
        filtered = tpch.q3_filtered_tables(base)
        assert filtered["orders"].num_rows < base["orders"].num_rows
        assert filtered["lineitem"].num_rows < base["lineitem"].num_rows

    def test_q3_join_query_runs_verified(self, scale):
        from repro.engine.cluster import Cluster

        base = tpch.tables(scale)
        filtered = tpch.q3_filtered_tables(base)
        result = Cluster(workers=2).run_verified(tpch.q3_join_query(), filtered)
        assert result.pruning_rate > 0.0

    def test_selectivity_sweep_monotone(self, scale):
        base = tpch.tables(scale)
        order_counts = [
            tpch.q3_filtered_tables(base, date=date)["orders"].num_rows
            for date in (600, 1200, 1800)
        ]
        assert order_counts == sorted(order_counts)

    def test_q3_revenue_topn(self, scale):
        base = tpch.tables(scale)
        filtered = tpch.q3_filtered_tables(base)
        items = filtered["lineitem"]
        keys = {int(k): 1 for k in items["l_orderkey"].tolist()[:100]}
        ranked = tpch.q3_revenue_topn(keys, items, n=10)
        assert len(ranked) <= 10
        revenues = [rev for _, rev in ranked]
        assert revenues == sorted(revenues, reverse=True)


class TestStringAgents:
    def test_string_agents_generated(self):
        scale = bigdata.BigDataScale(
            rankings_rows=500, uservisits_rows=1000,
            distinct_user_agents=50, string_agents=True,
        )
        table = bigdata.uservisits(scale)
        agents = table["userAgent"]
        assert agents.dtype.kind in ("U", "O")
        assert any("Mozilla" in a for a in agents.tolist())
        assert len(set(agents.tolist())) <= 50

    def test_distinct_over_string_agents_verified(self):
        from repro.engine.cluster import Cluster

        scale = bigdata.BigDataScale(
            rankings_rows=500, uservisits_rows=2000,
            distinct_urls=400, distinct_user_agents=60, string_agents=True,
        )
        tables = bigdata.tables(scale)
        result = Cluster(workers=3).run_verified(
            bigdata.query2_distinct(), tables
        )
        assert len(result.output) <= 60
        assert all(isinstance(agent, str) for agent in result.output)

    def test_fingerprint_distinct_over_strings(self):
        from repro.engine.cluster import Cluster, ClusterConfig

        scale = bigdata.BigDataScale(
            rankings_rows=500, uservisits_rows=2000,
            distinct_urls=400, distinct_user_agents=60, string_agents=True,
        )
        tables = bigdata.tables(scale)
        cluster = Cluster(workers=2, config=ClusterConfig(distinct_fingerprint=True))
        cluster.run_verified(bigdata.query2_distinct(), tables)
