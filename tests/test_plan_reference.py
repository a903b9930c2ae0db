"""Tests for query plans and the reference executor (repro.engine)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.engine.expressions import col
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


@pytest.fixture
def tables(products_table, ratings_table):
    return {"Products": products_table, "Ratings": ratings_table}


class TestPlanValidation:
    def test_distinct_needs_columns(self):
        with pytest.raises(PlanError):
            DistinctOp("t", ())

    def test_topn_positive_n(self):
        with pytest.raises(PlanError):
            TopNOp("t", "c", 0)

    def test_skyline_needs_two_dims(self):
        with pytest.raises(PlanError):
            SkylineOp("t", ("only-one",))

    def test_describe_mentions_operator(self):
        assert "DISTINCT" in DistinctOp("t", ("c",)).describe()
        assert "TOP 3" in TopNOp("t", "c", 3).describe()
        assert "JOIN" in JoinOp("a", "b", "x", "y").describe()

    def test_stream_columns_include_where(self):
        query = Query(DistinctOp("t", ("c",)), where=col("d") > 1)
        assert query.stream_columns() == ["c", "d"]


class TestReferenceExecutor:
    def test_count(self, tables):
        query = Query(CountOp("Products", col("price") > 4))
        assert run_reference(query, tables) == 2  # Pizza 7, Jello 5

    def test_filter_row_ids(self, tables):
        query = Query(FilterOp("Products", col("price") > 4))
        assert run_reference(query, tables) == {1, 3}

    def test_distinct_single_column(self, tables):
        query = Query(DistinctOp("Products", ("seller",)))
        assert run_reference(query, tables) == {"McCheetah", "Papizza", "JellyFish"}

    def test_distinct_multi_column(self, tables):
        query = Query(DistinctOp("Products", ("seller", "price")))
        result = run_reference(query, tables)
        assert ("McCheetah", 4) in result
        assert len(result) == 4

    def test_topn_paper_example(self, tables):
        # TOP 3 ... ORDER BY taste -> Jello 9, Cheetos 8, Pizza 7.
        query = Query(TopNOp("Ratings", "taste", 3))
        assert run_reference(query, tables) == [9, 8, 7]

    def test_groupby_max(self, tables):
        query = Query(GroupByOp("Products", "seller", "price", "max"))
        assert run_reference(query, tables) == {
            "McCheetah": 4,
            "Papizza": 7,
            "JellyFish": 5,
        }

    def test_groupby_min(self, tables):
        query = Query(GroupByOp("Products", "seller", "price", "min"))
        assert run_reference(query, tables)["McCheetah"] == 2

    def test_having_paper_example(self, tables):
        # HAVING SUM(price) > 5 -> McCheetah (6), Papizza (7).
        query = Query(HavingOp("Products", "seller", "price", 5, "sum"))
        assert run_reference(query, tables) == {"McCheetah", "Papizza"}

    def test_having_count(self, tables):
        query = Query(HavingOp("Products", "seller", "price", 1, "count"))
        assert run_reference(query, tables) == {"McCheetah"}

    def test_join_paper_example(self, tables):
        # Products ⋈ Ratings on name: 4 matches (Cheetos unmatched).
        query = Query(JoinOp("Products", "Ratings", "name", "name"))
        result = run_reference(query, tables)
        assert result == Counter({"Burger": 1, "Pizza": 1, "Fries": 1, "Jello": 1})

    def test_skyline_paper_example(self, tables):
        # SKYLINE OF taste, texture -> Cheetos (8,6), Jello (9,4), Burger (5,7).
        query = Query(SkylineOp("Ratings", ("taste", "texture")))
        assert run_reference(query, tables) == {(8.0, 6.0), (9.0, 4.0), (5.0, 7.0)}

    def test_where_prefilters(self, tables):
        query = Query(
            DistinctOp("Products", ("seller",)), where=col("price") > 4
        )
        assert run_reference(query, tables) == {"Papizza", "JellyFish"}

    def test_unknown_table_raises(self, tables):
        query = Query(DistinctOp("Nope", ("c",)))
        with pytest.raises(PlanError):
            run_reference(query, tables)

    def test_groupby_unknown_aggregate(self, tables):
        query = Query(GroupByOp("Products", "seller", "price", "median"))
        with pytest.raises(PlanError):
            run_reference(query, tables)
