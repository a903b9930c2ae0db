"""Tests for the EXPLAIN facility (repro.engine.explain)."""

from __future__ import annotations

import pytest

from repro.engine.explain import explain
from repro.engine.sql import parse


class TestExplain:
    def test_filter_shows_decomposition(self):
        text = explain(
            parse(
                "SELECT * FROM Ratings WHERE taste > 5 OR "
                "(texture > 4 AND name LIKE 'e%s')"
            )
        )
        # The paper's §4.1 example: LIKE relaxes away, two predicates stay.
        assert "taste>5" in text
        assert "texture>4" in text
        assert "LIKE" in text  # listed as deferred to the master
        assert "deferred to master" in text
        assert "truth table: 3 match-action rules" in text

    def test_fully_supported_filter_has_no_deferral(self):
        text = explain(parse("SELECT * FROM Ratings WHERE taste > 5"))
        assert "deferred" not in text

    def test_distinct_plan(self):
        text = explain(parse("SELECT DISTINCT seller FROM Products"))
        assert "DistinctPruner" in text
        assert "deterministic" in text
        assert "hash set" in text

    def test_join_shows_two_passes(self):
        text = explain(
            parse("SELECT * FROM A JOIN B ON A.x = B.y")
        )
        assert "Bloom" in text
        assert "JoinPruner" in text

    def test_having_shows_refetch(self):
        text = explain(
            parse("SELECT k FROM T GROUP BY k HAVING SUM(v) > 10")
        )
        assert "partial refetch" in text or "partial second pass" in text
        assert "HavingPruner" in text

    def test_skyline_footprint(self):
        text = explain(parse("SELECT a FROM T SKYLINE OF x, y"))
        assert "SkylinePruner" in text
        assert "TCAM" in text

    def test_skyline_shows_stream_and_drain(self):
        text = explain(parse("SELECT a FROM T SKYLINE OF x, y"))
        assert "stream + FIN drain" in text
        assert "exact skyline over forwarded + drained points" in text

    def test_passes_and_master_lines_come_from_the_operator_table(self):
        from repro.engine.operators import OPERATORS

        for sql in (
            "SELECT * FROM A JOIN B ON A.x = B.y",
            "SELECT k FROM T GROUP BY k HAVING SUM(v) > 10",
            "SELECT TOP 5 x FROM T ORDER BY x",
        ):
            query = parse(sql)
            kind, plan = OPERATORS[type(query.operator)]
            text = explain(query)
            assert all(what in text for _, what in plan.phases)
            assert plan.completion[kind] in text

    def test_topn_probabilistic_guarantee(self):
        text = explain(parse("SELECT TOP 100 x FROM T ORDER BY x"))
        assert "probabilistic" in text

    def test_too_small_hardware_reported(self):
        # A 30-dimension SKYLINE needs more stages than the Tofino has.
        dims = ", ".join(f"x{i}" for i in range(30))
        text = explain(parse(f"SELECT a FROM T SKYLINE OF {dims}"))
        assert "fits    : NO" in text

    def test_packed_where_mentioned(self):
        text = explain(
            parse("SELECT DISTINCT userAgent FROM UserVisits WHERE duration > 10")
        )
        assert "packed before the operator" in text

    def test_stream_columns_listed(self):
        text = explain(parse("SELECT DISTINCT a FROM T WHERE b > 1"))
        assert "'a'" in text and "'b'" in text
