"""Cross-module integration tests: full workloads, packing, end-to-end paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.cost import CostModel
from repro.engine.expressions import col
from repro.engine.plan import GroupByOp, Query
from repro.engine.reference import run_reference
from repro.net.reliability import ReliableTransfer, packets_for
from repro.switch.compiler import (
    footprint_filtering,
    footprint_groupby,
    pack,
)
from repro.switch.resources import TOFINO
from repro.workloads import bigdata, tpch
from tests.test_cost import first_run_speedup


@pytest.fixture(scope="module")
def tables():
    scale = bigdata.BigDataScale(
        rankings_rows=4000,
        uservisits_rows=8000,
        distinct_urls=1500,
        distinct_user_agents=120,
        distinct_languages=15,
    )
    return bigdata.tables(scale, seed=11)


class TestBigDataEndToEnd:
    def test_all_seven_queries_verified(self, tables):
        cluster = Cluster(workers=5)
        queries = bigdata.benchmark_queries()
        queries["Q7-having"] = bigdata.query7_having(threshold=4000.0)
        for name, query in queries.items():
            run_tables = dict(tables)
            if name == "Q3-skyline":
                run_tables["Rankings"] = bigdata.permuted(run_tables["Rankings"])
            cluster.run_verified(query, run_tables)

    def test_bigdata_a_plus_b_combined(self, tables):
        # §6: filter (A) packs beside group-by (B); pruning stays correct.
        cluster = Cluster(workers=5)
        a = bigdata.query1_filter_count()
        b = bigdata.query5_groupby()
        result_a = cluster.run_verified(a, tables)
        result_b = cluster.run_verified(b, tables)
        combined_fp = pack(
            [footprint_filtering(1), footprint_groupby(cols=8, rows=4096)], TOFINO
        )
        assert combined_fp.fits(TOFINO)
        assert result_a.output == run_reference(a, tables)
        assert result_b.output == run_reference(b, tables)

    def test_filtered_groupby_single_query(self, tables):
        # A WHERE + GROUP BY in one query: the §6 packed pipeline shape.
        cluster = Cluster(workers=5)
        query = Query(
            GroupByOp("UserVisits", "userAgent", "adRevenue", "max"),
            where=col("duration") > 600,
        )
        result = cluster.run_verified(query, tables)
        assert result.output == run_reference(query, tables)

    def test_cheetah_speedup_shape_vs_spark(self, tables):
        # Fig. 5's qualitative claims on real (scaled) volumes.
        cluster = Cluster(workers=5)
        model = CostModel()
        groupby = cluster.run(bigdata.query5_groupby(), tables)
        filtering = cluster.run(bigdata.query1_filter_count(), tables)
        assert first_run_speedup(model, groupby) > first_run_speedup(model, filtering)
        assert model.speedup(groupby) > 1.0


class TestTpchEndToEnd:
    def test_q3_pipeline(self):
        base = tpch.tables(tpch.TpchScale(customers=500), seed=3)
        filtered = tpch.q3_filtered_tables(base)
        cluster = Cluster(workers=2)
        join_result = cluster.run_verified(tpch.q3_join_query(), filtered)
        # The master finishes Q3: revenue per order key, top 10.
        joined_keys = {int(k): v for k, v in join_result.output.items()}
        ranked = tpch.q3_revenue_topn(joined_keys, filtered["lineitem"], n=10)
        assert len(ranked) <= 10
        assert join_result.pruning_rate > 0.0

    def test_q3_join_beats_spark_in_model(self):
        base = tpch.tables(tpch.TpchScale(customers=500), seed=3)
        filtered = tpch.q3_filtered_tables(base)
        result = Cluster(workers=2).run(tpch.q3_join_query(), filtered)
        assert first_run_speedup(CostModel(), result) > 1.0


class TestReliabilityIntegration:
    def test_groupby_stream_over_lossy_network(self, tables):
        # Stream a (key, value) workload through the reliability protocol
        # with the GROUP BY pruner and verify the completed query.
        from repro.core.groupby import GroupByPruner, master_groupby

        visits = tables["UserVisits"].take(np.arange(400))
        entries = [
            (int(k), int(v))
            for k, v in zip(
                visits["userAgent"].tolist(), visits["adRevenue"].tolist()
            )
        ]
        pruner = GroupByPruner(rows=64, cols=4)
        transfer = ReliableTransfer(
            pruner,
            loss=0.2,
            seed=5,
        )
        transfer.run(packets_for(entries))
        delivered = [(k, float(v)) for k, v in transfer.master_unique_entries]
        expected = master_groupby([(k, float(v)) for k, v in entries], "max")
        assert master_groupby(delivered, "max") == expected


class TestMultiQueryPacking:
    def test_interactive_query_set_fits(self):
        # §6: DISTINCT + TOP N + JOIN packed concurrently for interactive
        # use without switch recompilation.
        from repro.switch.compiler import (
            footprint_distinct,
            footprint_join,
            footprint_topn_rand,
        )

        combined = pack(
            [
                footprint_distinct(cols=2, rows=4096),
                footprint_topn_rand(cols=4, rows=2048),
                footprint_join(memory_bits=8 * 1024 * 1024, hashes=3),
            ],
            TOFINO,
        )
        assert combined.fits(TOFINO)

    def test_resource_heavy_set_rejected(self):
        from repro.errors import ResourceError
        from repro.switch.compiler import footprint_skyline

        # Many SKYLINE instances exceed the stage budget when serialized.
        with pytest.raises(ResourceError):
            pack(
                [footprint_skyline(points=10)] * 3,
                TOFINO,
                strategy="serial",
            )


class TestDataScaleTrends:
    """Fig. 11's directional claims on prefix-scaled streams."""

    def test_distinct_pruning_improves_with_scale(self, tables):
        from repro.core.distinct import DistinctPruner

        agents = tables["UserVisits"]["userAgent"].tolist()
        rates = []
        for fraction in (0.25, 1.0):
            prefix = agents[: int(len(agents) * fraction)]
            pruner = DistinctPruner(rows=512, cols=2)
            pruner.survivors(prefix)
            rates.append(pruner.stats.pruning_rate)
        assert rates[1] > rates[0]

    def test_join_pruning_degrades_with_scale(self):
        from repro.core.base import PruneDecision
        from repro.core.join import JoinPruner
        from repro.workloads.synthetic import overlapping_key_sets

        rates = []
        for size in (2000, 20_000):
            left, right = overlapping_key_sets(size, size, overlap=0.1, seed=9)
            pruner = JoinPruner("L", "R", memory_bits=1 << 14)
            pruner.build(left, right)
            survived = sum(
                1
                for side, keys in (("L", left), ("R", right))
                for k in keys
                if pruner.process((side, k)) is PruneDecision.FORWARD
            )
            rates.append(1 - survived / (2 * size))
        assert rates[0] > rates[1]  # more data -> more BF false positives
