"""Tests for the SQL front-end (repro.engine.sql)."""

from __future__ import annotations

import pytest

from repro.engine.expressions import Between, Compare, Like
from repro.engine.plan import (
    CountOp,
    DistinctOp,
    FilterOp,
    GroupByOp,
    HavingOp,
    JoinOp,
    SkylineOp,
    TopNOp,
)
from repro.engine.reference import run_reference
from repro.engine.sql import parse
from repro.errors import PlanError


class TestSelectForms:
    def test_count(self):
        q = parse("SELECT COUNT(*) FROM Rankings WHERE avgDuration < 10")
        assert isinstance(q.operator, CountOp)
        assert q.operator.table == "Rankings"

    def test_count_requires_where(self):
        with pytest.raises(PlanError):
            parse("SELECT COUNT(*) FROM Rankings")

    def test_distinct_single(self):
        q = parse("SELECT DISTINCT seller FROM Products")
        assert isinstance(q.operator, DistinctOp)
        assert list(q.operator.columns) == ["seller"]

    def test_distinct_multi(self):
        q = parse("SELECT DISTINCT seller, price FROM Products")
        assert list(q.operator.columns) == ["seller", "price"]

    def test_distinct_with_where(self):
        q = parse("SELECT DISTINCT seller FROM Products WHERE price > 4")
        assert q.where is not None

    def test_topn(self):
        q = parse("SELECT TOP 250 name FROM UserVisits ORDER BY adRevenue")
        assert isinstance(q.operator, TopNOp)
        assert q.operator.n == 250
        assert q.operator.order_by == "adRevenue"

    def test_topn_star_and_desc(self):
        q = parse("SELECT TOP 3 * FROM Ratings ORDER BY taste DESC")
        assert q.operator.n == 3

    def test_groupby_max(self):
        q = parse(
            "SELECT userAgent, MAX(adRevenue) FROM UserVisits GROUP BY userAgent"
        )
        assert isinstance(q.operator, GroupByOp)
        assert q.operator.aggregate == "max"
        assert q.operator.value == "adRevenue"
        assert q.operator.key == "userAgent"

    def test_groupby_min(self):
        q = parse("SELECT k, MIN(v) FROM T GROUP BY k")
        assert q.operator.aggregate == "min"

    def test_groupby_sum_rejected(self):
        with pytest.raises(PlanError, match="HAVING"):
            parse("SELECT k, SUM(v) FROM T GROUP BY k")

    def test_having_sum(self):
        q = parse(
            "SELECT seller FROM Products GROUP BY seller HAVING SUM(price) > 5"
        )
        assert isinstance(q.operator, HavingOp)
        assert q.operator.threshold == 5.0
        assert q.operator.aggregate == "sum"

    def test_having_less_than_rejected(self):
        with pytest.raises(PlanError):
            parse("SELECT k FROM T GROUP BY k HAVING SUM(v) < 5")

    def test_join(self):
        q = parse(
            "SELECT * FROM Products JOIN Ratings ON Products.name = Ratings.name"
        )
        assert isinstance(q.operator, JoinOp)
        assert q.operator.left_on == "name"
        assert q.operator.right_table == "Ratings"

    def test_join_reversed_condition_order(self):
        q = parse("SELECT * FROM A JOIN B ON B.y = A.x")
        assert q.operator.left_on == "x"
        assert q.operator.right_on == "y"

    def test_join_wrong_tables_rejected(self):
        with pytest.raises(PlanError):
            parse("SELECT * FROM A JOIN B ON C.x = D.y")

    def test_skyline(self):
        q = parse("SELECT name FROM Ratings SKYLINE OF taste, texture")
        assert isinstance(q.operator, SkylineOp)
        assert list(q.operator.columns) == ["taste", "texture"]

    def test_filter(self):
        q = parse("SELECT * FROM Ratings WHERE taste > 5")
        assert isinstance(q.operator, FilterOp)

    def test_bare_select_star_rejected(self):
        with pytest.raises(PlanError):
            parse("SELECT * FROM Ratings")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PlanError):
            parse("SELECT DISTINCT a FROM t EXTRA")

    def test_keywords_case_insensitive(self):
        q = parse("select distinct seller from Products")
        assert isinstance(q.operator, DistinctOp)


def parse_predicate(sql):
    """The WHERE expression ``sql`` parses to."""
    return parse(f"SELECT DISTINCT k FROM t WHERE {sql}").where


class TestPredicateGrammar:
    def test_simple_comparison(self):
        expr = parse_predicate("taste > 5")
        assert isinstance(expr, Compare)
        assert expr.op == ">"

    def test_all_operators(self):
        for sql_op, norm in [
            (">", ">"), (">=", ">="), ("<", "<"), ("<=", "<="),
            ("=", "=="), ("==", "=="), ("!=", "!="), ("<>", "!="),
        ]:
            expr = parse_predicate(f"x {sql_op} 1")
            assert expr.op == norm

    def test_like(self):
        expr = parse_predicate("name LIKE 'e%s'")
        assert isinstance(expr, Like)
        assert expr.pattern == "e%s"

    def test_like_requires_string(self):
        with pytest.raises(PlanError):
            parse_predicate("name LIKE 5")

    def test_between(self):
        expr = parse_predicate("x BETWEEN 1 AND 10")
        assert isinstance(expr, Between)
        assert (expr.lo, expr.hi) == (1, 10)

    def test_paper_example_structure(self):
        expr = parse_predicate("taste > 5 OR (texture > 4 AND name LIKE 'e%s')")
        text = repr(expr)
        assert "OR" in text and "AND" in text and "LIKE" in text

    def test_precedence_and_binds_tighter(self):
        # a OR b AND c == a OR (b AND c)
        expr = parse_predicate("a > 1 OR b > 2 AND c > 3")
        assert repr(expr).startswith("((a > 1) OR")

    def test_not(self):
        expr = parse_predicate("NOT taste > 5")
        assert repr(expr).startswith("(NOT")

    def test_float_and_string_literals(self):
        assert parse_predicate("x > 1.5").literal == 1.5
        assert parse_predicate("x = 'abc'").literal == "abc"

    def test_negative_number(self):
        assert parse_predicate("x > -3").literal == -3

    def test_bad_tokens_rejected(self):
        with pytest.raises(PlanError):
            parse_predicate("x > @")

    def test_missing_comparison_rejected(self):
        with pytest.raises(PlanError):
            parse_predicate("x")


class TestParsedQueriesExecute:
    """Parsed paper queries run end-to-end and match the reference."""

    @pytest.fixture
    def tables(self, products_table, ratings_table):
        return {"Products": products_table, "Ratings": ratings_table}

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT DISTINCT seller FROM Products",
            "SELECT TOP 3 name FROM Ratings ORDER BY taste",
            "SELECT seller, MAX(price) FROM Products GROUP BY seller",
            "SELECT seller FROM Products GROUP BY seller HAVING SUM(price) > 5",
            "SELECT * FROM Products JOIN Ratings ON Products.name = Ratings.name",
            "SELECT name FROM Ratings SKYLINE OF taste, texture",
            "SELECT COUNT(*) FROM Ratings WHERE taste > 5 OR texture > 4",
        ],
    )
    def test_run_verified(self, sql, tables):
        from repro.engine.cluster import Cluster

        Cluster(workers=2).run_verified(parse(sql), tables)

    def test_paper_where_example_against_mask(self, tables):
        query = parse(
            "SELECT * FROM Ratings WHERE taste > 5 OR "
            "(texture > 4 AND name LIKE 'e%s')"
        )
        result = run_reference(query, tables)
        # Rows: Pizza(7,5) Cheetos(8,6) Jello(9,4) pass on taste alone.
        assert result == {0, 1, 2}


class TestOrderDirection:
    def test_desc_default(self):
        q = parse("SELECT TOP 5 x FROM T ORDER BY x")
        assert q.operator.descending is True

    def test_explicit_desc(self):
        q = parse("SELECT TOP 5 x FROM T ORDER BY x DESC")
        assert q.operator.descending is True

    def test_asc(self):
        q = parse("SELECT TOP 5 x FROM T ORDER BY x ASC")
        assert q.operator.descending is False

    def test_asc_executes_verified(self, products_table, ratings_table):
        from repro.engine.cluster import Cluster

        tables = {"Products": products_table, "Ratings": ratings_table}
        q = parse("SELECT TOP 2 taste FROM Ratings ORDER BY taste ASC")
        result = Cluster(workers=2).run_verified(q, tables)
        assert result.output == [3, 5]  # the two worst-tasting items

    def test_describe_includes_direction(self):
        assert "ASC" in parse("SELECT TOP 5 x FROM T ORDER BY x ASC").describe()


class TestHavingCount:
    def test_having_count_parses(self):
        q = parse("SELECT k FROM T GROUP BY k HAVING COUNT(v) > 3")
        assert isinstance(q.operator, HavingOp)
        assert q.operator.aggregate == "count"

    def test_having_count_executes(self, products_table, ratings_table):
        from repro.engine.cluster import Cluster

        tables = {"Products": products_table, "Ratings": ratings_table}
        q = parse(
            "SELECT seller FROM Products GROUP BY seller HAVING COUNT(price) > 1"
        )
        result = Cluster(workers=2).run_verified(q, tables)
        assert result.output == {"McCheetah"}


class TestCacheKey:
    """Query.cache_key(): the serving/compile-memo canonical key."""

    def test_invariant_to_whitespace_and_case(self):
        variants = (
            "SELECT COUNT(*) FROM Products WHERE price > 4",
            "select count(*) from Products where price > 4",
            "SELECT   COUNT(*)\tFROM Products   WHERE price > 4",
            "Select Count(*) From Products Where price > 4",
        )
        keys = {parse(sql).cache_key() for sql in variants}
        assert len(keys) == 1

    def test_invariance_holds_across_operator_kinds(self):
        pairs = (
            ("SELECT DISTINCT seller FROM Products",
             "select  distinct seller from Products"),
            ("SELECT TOP 5 price FROM Products ORDER BY price DESC",
             "select top 5 price from Products order by price desc"),
            ("SELECT seller, MAX(price) FROM Products GROUP BY seller",
             "select seller, max(price) from Products  group by seller"),
            ("SELECT seller FROM Products GROUP BY seller HAVING COUNT(price) > 1",
             "select seller from Products group by seller having count(price) > 1"),
        )
        for canonical, variant in pairs:
            assert parse(canonical).cache_key() == parse(variant).cache_key()

    def test_distinct_plans_get_distinct_keys(self):
        sqls = (
            "SELECT COUNT(*) FROM Products WHERE price > 4",
            "SELECT COUNT(*) FROM Products WHERE price > 5",
            "SELECT COUNT(*) FROM Ratings WHERE taste > 4",
            "SELECT DISTINCT seller FROM Products",
            "SELECT DISTINCT seller FROM Products WHERE price > 4",
        )
        keys = [parse(sql).cache_key() for sql in sqls]
        assert len(set(keys)) == len(keys)

    def test_key_is_a_stable_string(self):
        key = parse("SELECT DISTINCT seller FROM Products").cache_key()
        assert isinstance(key, str)
        assert "distinctop" in key and "Products" in key
        # Stable across repeated parses of the same text.
        assert key == parse("SELECT DISTINCT seller FROM Products").cache_key()


class TestErrorPositions:
    """Malformed SQL raises PlanError with a position — never a crash."""

    def test_unterminated_string_literal(self):
        with pytest.raises(PlanError, match="position"):
            parse("SELECT COUNT(*) FROM T WHERE name = 'oops")

    def test_unknown_operator_token(self):
        with pytest.raises(PlanError, match="position"):
            parse("SELECT COUNT(*) FROM T WHERE x @ 5")

    def test_trailing_garbage(self):
        with pytest.raises(PlanError, match="position"):
            parse("SELECT DISTINCT seller FROM Products EXTRA tokens here")

    def test_position_points_into_the_text(self):
        sql = "SELECT COUNT(*) FROM T WHERE x @ 5"
        with pytest.raises(PlanError) as caught:
            parse(sql)
        message = str(caught.value)
        position = int(message.split("position ")[1].split(":")[0].split(" ")[0])
        assert sql[position] == "@"
