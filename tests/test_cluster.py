"""Tests for the cluster runner (repro.engine.cluster)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sizing import topn_cols
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.expressions import Like, col
from repro.engine.plan import (
    CountOp,
    DistinctOp,
    FilterOp,
    GroupByOp,
    HavingOp,
    JoinOp,
    Query,
    SkylineOp,
    TopNOp,
)
from repro.engine.reference import run_reference
from repro.engine.table import Table
from repro.errors import PlanError
from repro.switch.compiler import (
    footprint_distinct,
    footprint_filtering,
    footprint_groupby,
    footprint_having,
    footprint_join,
    footprint_skyline,
    footprint_topn_det,
    footprint_topn_rand,
)
from repro.workloads import bigdata


@pytest.fixture(scope="module")
def small_tables():
    scale = bigdata.BigDataScale(
        rankings_rows=3000,
        uservisits_rows=6000,
        distinct_urls=1200,
        distinct_user_agents=80,
        distinct_languages=12,
    )
    return bigdata.tables(scale, seed=5)


@pytest.fixture
def cluster():
    return Cluster(workers=5)


class TestRunVerified:
    """Every operator's Cheetah output must match the reference executor."""

    def test_count(self, cluster, small_tables):
        result = cluster.run_verified(bigdata.query1_filter_count(), small_tables)
        assert result.op_kind == "filter"

    def test_distinct(self, cluster, small_tables):
        result = cluster.run_verified(bigdata.query2_distinct(), small_tables)
        assert result.pruning_rate > 0.9

    def test_skyline(self, cluster, small_tables):
        tables = dict(small_tables)
        tables["Rankings"] = bigdata.permuted(tables["Rankings"], seed=1)
        result = cluster.run_verified(bigdata.query3_skyline(), tables)
        assert result.op_kind == "skyline"

    def test_topn(self, cluster, small_tables):
        result = cluster.run_verified(bigdata.query4_topn(), small_tables)
        assert len(result.output) == 250

    def test_groupby(self, cluster, small_tables):
        result = cluster.run_verified(bigdata.query5_groupby(), small_tables)
        assert result.pruning_rate > 0.5

    def test_join(self, cluster, small_tables):
        result = cluster.run_verified(bigdata.query6_join(), small_tables)
        assert result.op_kind == "join"
        assert len(result.phases) == 2  # build + probe

    def test_having(self, cluster, small_tables):
        query = bigdata.query7_having(threshold=3000.0)
        result = cluster.run_verified(query, small_tables)
        assert len(result.phases) == 2  # sketch + partial refetch

    def test_filter_row_ids(self, cluster, small_tables):
        query = Query(FilterOp("Rankings", col("avgDuration") < 10))
        result = cluster.run_verified(query, small_tables)
        assert result.output == run_reference(query, small_tables)

    def test_verification_failure_raises(self, cluster, small_tables):
        # Force a wrong answer by monkeypatching the output comparison:
        # a deliberately tiny fingerprint space makes DISTINCT collide.
        config = ClusterConfig(distinct_fingerprint=True)
        config.distinct_rows = 8
        cluster = Cluster(workers=2, config=config)
        # Patch the fingerprint width after construction via a custom run.
        from repro.core.distinct import FingerprintDistinctPruner

        query = bigdata.query2_distinct()
        original = cluster._build_pruner

        def tiny_pruner(q, tables):
            return FingerprintDistinctPruner(
                rows=8, cols=2, expected_distinct=80, fingerprint_bits=4
            )

        cluster._build_pruner = tiny_pruner
        with pytest.raises(AssertionError, match="pruning contract"):
            cluster.run_verified(query, small_tables)


class TestVolumes:
    def test_passthrough_forwards_everything(self, small_tables):
        cluster = Cluster(workers=3)
        result = cluster.run(bigdata.query2_distinct(), small_tables, use_cheetah=False)
        assert result.total_streamed == result.total_forwarded
        assert result.pruning_rate == 0.0

    def test_cheetah_and_baseline_same_output(self, small_tables):
        cluster = Cluster(workers=3)
        query = bigdata.query5_groupby()
        with_switch = cluster.run(query, small_tables, use_cheetah=True)
        without = cluster.run(query, small_tables, use_cheetah=False)
        assert with_switch.output == without.output

    def test_streamed_counts_match_table(self, cluster, small_tables):
        result = cluster.run(bigdata.query2_distinct(), small_tables)
        assert result.total_streamed == small_tables["UserVisits"].num_rows

    def test_join_build_pass_counts_both_tables(self, cluster, small_tables):
        result = cluster.run(bigdata.query6_join(), small_tables)
        build = result.phases[0]
        total = (
            small_tables["UserVisits"].num_rows + small_tables["Rankings"].num_rows
        )
        assert build.streamed == total
        assert build.forwarded == 0  # build traffic terminates at the switch

    def test_having_refetch_counts_candidate_entries(self, cluster, small_tables):
        query = bigdata.query7_having(threshold=3000.0)
        result = cluster.run(query, small_tables)
        sketch, refetch = result.phases
        assert refetch.streamed <= sketch.streamed
        assert refetch.forwarded == refetch.streamed

    def test_worker_count_recorded(self, small_tables):
        result = Cluster(workers=7).run(bigdata.query2_distinct(), small_tables)
        assert result.workers == 7


class TestWhereComposition:
    def test_where_with_distinct(self, cluster, small_tables):
        query = Query(
            DistinctOp("UserVisits", ("userAgent",)), where=col("duration") > 1800
        )
        result = cluster.run_verified(query, small_tables)
        assert result.output == run_reference(query, small_tables)

    def test_where_with_groupby(self, cluster, small_tables):
        query = Query(
            GroupByOp("UserVisits", "userAgent", "adRevenue", "max"),
            where=col("duration") > 600,
        )
        cluster.run_verified(query, small_tables)

    def test_unsupported_where_without_assist_refused(self, cluster, small_tables):
        # A LIKE before a stateful operator must demand worker assist.
        table = Table(
            "T",
            {
                "key": np.array(["a", "b", "a"]),
                "name": np.array(["xe", "ye", "ze"]),
            },
        )
        query = Query(DistinctOp("T", ("key",)), where=Like("name", "x%"))
        with pytest.raises(PlanError, match="worker_assist"):
            cluster.run(query, {"T": table})

    def test_unsupported_where_with_assist_works(self, small_tables):
        cluster = Cluster(workers=2, config=ClusterConfig(worker_assist_filters=True))
        table = Table(
            "T",
            {
                "key": np.array(["a", "b", "a", "c"]),
                "name": np.array(["xe", "ye", "xf", "xg"]),
            },
        )
        query = Query(DistinctOp("T", ("key",)), where=Like("name", "x%"))
        result = cluster.run_verified(query, {"T": table})
        assert result.output == {"a", "c"}

    def test_where_on_skyline(self, cluster, small_tables):
        query = Query(
            SkylineOp("Rankings", ("pageRank", "avgDuration")),
            where=col("avgDuration") > 30,
        )
        tables = dict(small_tables)
        tables["Rankings"] = bigdata.permuted(tables["Rankings"], seed=2)
        cluster.run_verified(query, tables)

    def test_where_on_having(self, cluster, small_tables):
        query = Query(
            HavingOp("UserVisits", "languageCode", "adRevenue", 500.0, "sum"),
            where=col("duration") > 1000,
        )
        cluster.run_verified(query, small_tables)


class TestConfiguration:
    def test_invalid_worker_count(self):
        with pytest.raises(PlanError):
            Cluster(workers=0)

    def test_prefiltered_join_rejected(self, cluster, small_tables):
        query = Query(
            JoinOp("UserVisits", "Rankings", "destURL", "pageURL"),
            where=col("duration") > 10,
        )
        with pytest.raises(PlanError):
            cluster.run(query, small_tables)

    def test_deterministic_topn_config(self, small_tables):
        cluster = Cluster(
            workers=2, config=ClusterConfig(topn_randomized=False)
        )
        cluster.run_verified(bigdata.query4_topn(), small_tables)

    def test_fifo_distinct_config(self, small_tables):
        cluster = Cluster(workers=2, config=ClusterConfig(distinct_policy="fifo"))
        cluster.run_verified(bigdata.query2_distinct(), small_tables)

    def test_fingerprint_distinct_config(self, small_tables):
        cluster = Cluster(workers=2, config=ClusterConfig(distinct_fingerprint=True))
        cluster.run_verified(bigdata.query2_distinct(), small_tables)

    def test_rbf_join_config(self, small_tables):
        cluster = Cluster(workers=2, config=ClusterConfig(join_variant="rbf"))
        cluster.run_verified(bigdata.query6_join(), small_tables)

    def test_skyline_sum_score_config(self, small_tables):
        cluster = Cluster(workers=2, config=ClusterConfig(skyline_score="sum"))
        tables = dict(small_tables)
        tables["Rankings"] = bigdata.permuted(tables["Rankings"], seed=3)
        cluster.run_verified(bigdata.query3_skyline(), tables)

    def test_resource_validation_enforced(self, small_tables):
        from repro.errors import ResourceError
        from repro.switch.resources import MINI

        config = ClusterConfig(model=MINI)
        cluster = Cluster(workers=2, config=config)
        # The default 4 MB JOIN filters cannot fit MINI's 64 KB stages.
        with pytest.raises(ResourceError):
            cluster.run(bigdata.query6_join(), small_tables)



#: Table 2's JOIN filter memory: 4 MB of Bloom bits.
_JOIN_BITS = 4 * 1024 * 1024 * 8


class TestTable2Sizes:
    """What the engine builds per operator, against Table 2 written out.

    The sizes live in the pruner constructors; this pins that an
    out-of-box :class:`Cluster` still compiles the paper's programs.
    """

    @pytest.mark.parametrize(
        "config, query, expected",
        [
            pytest.param(
                {}, bigdata.query1_filter_count(),
                footprint_filtering(predicates=1), id="filter",
            ),
            pytest.param(
                {}, bigdata.query2_distinct(),
                footprint_distinct(cols=2, rows=4096, policy="lru"),
                id="distinct",
            ),
            pytest.param(
                # Theorem 4 at 10^6 distinct values, delta = 1e-4: 45 bits.
                {"distinct_fingerprint": True}, bigdata.query2_distinct(),
                footprint_distinct(cols=2, rows=4096, policy="lru", value_bits=45),
                id="fingerprint-distinct",
            ),
            pytest.param(
                {}, bigdata.query4_topn(),
                footprint_topn_rand(cols=topn_cols(4096, 250, 1e-4), rows=4096),
                id="topn-randomized",
            ),
            pytest.param(
                {"topn_randomized": False}, bigdata.query4_topn(),
                footprint_topn_det(thresholds=4), id="topn-deterministic",
            ),
            pytest.param(
                {}, bigdata.query5_groupby(),
                footprint_groupby(cols=8, rows=4096), id="groupby",
            ),
            pytest.param(
                {}, bigdata.query6_join(),
                footprint_join(memory_bits=_JOIN_BITS, hashes=3, variant="bf"),
                id="join-bf",
            ),
            pytest.param(
                {"join_variant": "rbf"}, bigdata.query6_join(),
                footprint_join(memory_bits=_JOIN_BITS, hashes=3, variant="rbf"),
                id="join-rbf",
            ),
            pytest.param(
                {}, bigdata.query7_having(),
                footprint_having(width=1024, depth=3).merged_serial(
                    footprint_distinct(cols=2, rows=1024)
                ),
                id="having",
            ),
            pytest.param(
                {}, bigdata.query3_skyline(),
                footprint_skyline(dims=2, points=10, score="aph"),
                id="skyline-aph",
            ),
            pytest.param(
                {"skyline_score": "sum"}, bigdata.query3_skyline(),
                footprint_skyline(dims=2, points=10, score="sum"),
                id="skyline-sum",
            ),
        ],
    )
    def test_engine_builds_table2_sizes(self, small_tables, config, query, expected):
        cluster = Cluster(config=ClusterConfig(**config))
        assert cluster._build_pruner(query, small_tables).footprint() == expected
