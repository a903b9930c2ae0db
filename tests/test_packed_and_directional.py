"""Tests for §6 packed execution and directional SKYLINE (footnote 4)."""

from __future__ import annotations

import pytest

from repro.core.base import PruneDecision
from repro.core.skyline import (
    DirectionalSkylinePruner,
    master_directional_skyline,
    reflect_point,
)
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.expressions import col
from repro.engine.plan import (
    CountOp,
    DistinctOp,
    GroupByOp,
    HavingOp,
    Query,
    TopNOp,
)
from repro.engine.reference import run_reference
from repro.errors import ConfigurationError, PlanError, ResourceError
from repro.workloads import bigdata
from repro.workloads.synthetic import uniform_points


@pytest.fixture(scope="module")
def tables():
    scale = bigdata.BigDataScale(
        rankings_rows=3000, uservisits_rows=6000, distinct_urls=1200
    )
    return bigdata.tables(scale, seed=3)


class TestRunPacked:
    def test_three_queries_one_pass(self, tables):
        queries = [
            Query(DistinctOp("UserVisits", ("userAgent",))),
            Query(GroupByOp("UserVisits", "userAgent", "adRevenue", "max")),
            Query(CountOp("UserVisits", col("duration") > 1800)),
        ]
        packed = Cluster(workers=3).run_packed(queries, tables)
        for query, result in zip(queries, packed.results):
            assert result.output == run_reference(query, tables)
        # One pass over the table, not one per query.
        assert packed.total_streamed == tables["UserVisits"].num_rows

    def test_packed_forwards_union_of_bits(self, tables):
        # The shared stream forwards an entry if ANY query needs it, so
        # packed pruning is at most each query's solo pruning.
        queries = [
            Query(DistinctOp("UserVisits", ("userAgent",))),
            Query(CountOp("UserVisits", col("duration") > 1800)),
        ]
        cluster = Cluster(workers=3)
        packed = cluster.run_packed(queries, tables)
        for query in queries:
            solo = cluster.run(query, tables)
            assert packed.pruning_rate <= solo.pruning_rate + 1e-9

    def test_packed_with_topn(self, tables):
        queries = [
            Query(TopNOp("UserVisits", "adRevenue", 100)),
            Query(DistinctOp("UserVisits", ("languageCode",))),
        ]
        packed = Cluster(workers=3).run_packed(queries, tables)
        for query, result in zip(queries, packed.results):
            assert result.output == run_reference(query, tables)

    def test_multi_pass_operators_rejected(self, tables):
        with pytest.raises(PlanError, match="single-pass"):
            Cluster().run_packed(
                [Query(HavingOp("UserVisits", "languageCode", "adRevenue", 10.0))],
                tables,
            )

    def test_where_rejected(self, tables):
        with pytest.raises(PlanError, match="WHERE"):
            Cluster().run_packed(
                [Query(DistinctOp("UserVisits", ("userAgent",)),
                       where=col("duration") > 1)],
                tables,
            )

    def test_mixed_tables_rejected(self, tables):
        with pytest.raises(PlanError, match="one table"):
            Cluster().run_packed(
                [
                    Query(DistinctOp("UserVisits", ("userAgent",))),
                    Query(CountOp("Rankings", col("avgDuration") < 10)),
                ],
                tables,
            )

    def test_empty_rejected(self, tables):
        with pytest.raises(PlanError):
            Cluster().run_packed([], tables)

    def test_resource_packing_enforced(self, tables):
        from repro.switch.resources import MINI

        cluster = Cluster(workers=2, config=ClusterConfig(model=MINI))
        queries = [
            Query(DistinctOp("UserVisits", ("userAgent",))),
            Query(GroupByOp("UserVisits", "userAgent", "adRevenue", "max")),
        ]
        with pytest.raises(ResourceError):
            cluster.run_packed(queries, tables)

    def test_per_query_results_tagged(self, tables):
        queries = [
            Query(DistinctOp("UserVisits", ("userAgent",))),
            Query(GroupByOp("UserVisits", "userAgent", "adRevenue", "max")),
        ]
        packed = Cluster(workers=3).run_packed(queries, tables)
        assert packed.results[0].op_kind == "distinct"
        assert packed.results[1].op_kind == "groupby"

    def test_packed_report_matches_run_report_shape(self, tables):
        import json

        queries = [
            Query(DistinctOp("UserVisits", ("userAgent",))),
            Query(CountOp("UserVisits", col("duration") > 1800)),
        ]
        cluster = Cluster(workers=3)
        packed_report = cluster.run_packed(queries, tables).report()
        solo_report = cluster.run(queries[0], tables).report()
        # Same top-level shape as RunResult.report (plus "queries").
        assert set(solo_report) <= set(packed_report)
        assert packed_report["op_kind"] == "packed"
        assert packed_report["workers"] == 3
        totals = packed_report["totals"]
        assert totals["streamed"] == tables["UserVisits"].num_rows
        assert totals["pruned"] == totals["streamed"] - totals["forwarded"]
        assert 0.0 <= totals["pruning_rate"] <= 1.0
        assert [p["name"] for p in packed_report["phases"]] == ["packed-stream"]
        assert packed_report["phases"][0]["seconds"] is not None
        # Per-query isolation: each embedded report is a full run report.
        assert len(packed_report["queries"]) == 2
        for sub in packed_report["queries"]:
            assert set(solo_report) <= set(sub)
        json.dumps(packed_report)  # JSON-ready end to end


class TestReflectPoint:
    def test_max_dims_unchanged(self):
        assert reflect_point((3.0, 4.0), ["max", "max"], [10, 10]) == (3.0, 4.0)

    def test_min_dims_reflected(self):
        assert reflect_point((3.0, 4.0), ["max", "min"], [10, 10]) == (3.0, 6.0)

    def test_value_above_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            reflect_point((11.0,), ["min"], [10])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            reflect_point((1.0, 2.0), ["max"], [10, 10])

    def test_unknown_direction_rejected(self):
        with pytest.raises(ConfigurationError):
            reflect_point((1.0,), ["sideways"], [10])


class TestDirectionalSkyline:
    def _run(self, pruner, points):
        received = []
        for point in points:
            if pruner.process(point) is PruneDecision.FORWARD:
                received.append(pruner.last_carried)
        received.extend(pruner.drain())
        return received

    def test_min_min_skyline_contract(self):
        # Minimize both dimensions (e.g. price and latency).
        points = uniform_points(2000, dims=2, seed=4)
        pruner = DirectionalSkylinePruner(
            directions=["min", "min"], bounds=[1 << 16, 1 << 16], points=8
        )
        received = self._run(pruner, points)
        got = set(master_directional_skyline(received, ["min", "min"]))
        expected = set(master_directional_skyline(points, ["min", "min"]))
        assert got == expected

    def test_mixed_directions_contract(self):
        points = uniform_points(2000, dims=2, seed=5)
        directions = ["max", "min"]
        pruner = DirectionalSkylinePruner(
            directions=directions, bounds=[1 << 16, 1 << 16], points=8
        )
        received = self._run(pruner, points)
        got = set(master_directional_skyline(received, directions))
        expected = set(master_directional_skyline(points, directions))
        assert got == expected

    def test_all_max_matches_plain_skyline(self):
        from repro.core.skyline import master_skyline

        points = uniform_points(1000, dims=2, seed=6)
        assert set(master_directional_skyline(points, ["max", "max"])) == set(
            master_skyline(points)
        )

    def test_drain_in_original_coordinates(self):
        pruner = DirectionalSkylinePruner(
            directions=["min", "min"], bounds=[100, 100], points=4
        )
        pruner.process((5.0, 5.0))  # excellent under min/min
        assert (5.0, 5.0) in pruner.drain()

    def test_aph_score_works_with_reflection(self):
        points = uniform_points(1500, dims=2, seed=7)
        pruner = DirectionalSkylinePruner(
            directions=["min", "max"], bounds=[1 << 16, 1 << 16],
            points=6, score="aph",
        )
        received = self._run(pruner, points)
        got = set(master_directional_skyline(received, ["min", "max"]))
        expected = set(master_directional_skyline(points, ["min", "max"]))
        assert got == expected

    def test_footprint_delegates(self):
        pruner = DirectionalSkylinePruner(
            directions=["min", "max"], bounds=[10, 10], points=5
        )
        assert pruner.footprint().stages > 0

    def test_reset(self):
        pruner = DirectionalSkylinePruner(
            directions=["min", "max"], bounds=[10, 10], points=2
        )
        pruner.process((1.0, 2.0))
        pruner.reset()
        assert pruner.drain() == []
