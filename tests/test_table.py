"""Tests for the columnar Table (repro.engine.table)."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro.engine.table import Table
from repro.errors import PlanError


def table_to_csv(table, path):
    """Write a table to CSV, header row first: the round trip's writer."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        writer.writerows(table.iter_rows(table.column_names))


@pytest.fixture
def table():
    return Table(
        "t",
        {
            "a": np.array([1, 2, 3, 4, 5]),
            "b": np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
            "s": np.array(["x", "y", "x", "z", "y"]),
        },
    )


class TestConstruction:
    def test_basic(self, table):
        assert table.num_rows == 5
        assert len(table) == 5
        assert table.column_names == ["a", "b", "s"]

    def test_ragged_columns_rejected(self):
        with pytest.raises(PlanError):
            Table("t", {"a": np.array([1]), "b": np.array([1, 2])})

    def test_empty_columns_rejected(self):
        with pytest.raises(PlanError):
            Table("t", {})

    def test_from_rows(self, products_table):
        assert products_table.num_rows == 4
        assert products_table["price"].tolist() == [4, 7, 2, 5]

    def test_from_rows_arity_checked(self):
        with pytest.raises(PlanError):
            Table.from_rows("t", ["a", "b"], [(1,)])


class TestAccess:
    def test_column_lookup(self, table):
        assert table.column("a").tolist() == [1, 2, 3, 4, 5]
        assert table["a"] is table.column("a")

    def test_missing_column_raises_with_names(self, table):
        with pytest.raises(PlanError, match="available"):
            table.column("missing")

    def test_contains(self, table):
        assert "a" in table
        assert "zz" not in table


class TestTransforms:
    def test_mask(self, table):
        kept = table.mask(table["a"] > 3)
        assert kept["a"].tolist() == [4, 5]

    def test_mask_length_checked(self, table):
        with pytest.raises(PlanError):
            table.mask(np.array([True]))

    def test_take(self, table):
        taken = table.take(np.array([4, 0]))
        assert taken["a"].tolist() == [5, 1]

    def test_shuffled_is_permutation(self, table):
        shuffled = table.shuffled(seed=3)
        assert sorted(shuffled["a"].tolist()) == [1, 2, 3, 4, 5]
        assert shuffled.num_rows == 5

    def test_shuffled_keeps_rows_aligned(self, table):
        shuffled = table.shuffled(seed=3)
        pairs = set(zip(shuffled["a"].tolist(), shuffled["b"].tolist()))
        assert pairs == {(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0), (5, 50.0)}


class TestPartitioning:
    def test_partition_covers_all_rows(self, table):
        parts = table.partition(2)
        assert sum(p.num_rows for p in parts) == 5

    def test_partition_count(self, table):
        assert len(table.partition(3)) == 3

    def test_more_partitions_than_rows(self, table):
        parts = table.partition(10)
        assert sum(p.num_rows for p in parts) == 5

    def test_invalid_partition_count(self, table):
        with pytest.raises(PlanError):
            table.partition(0)

    def test_partitions_are_zero_copy_views(self, table):
        parts = table.partition(2)
        for part in parts:
            if part.num_rows:
                assert np.shares_memory(part.column("a"), table.column("a"))

    def test_partition_bounds_match_partition_sizes(self, table):
        bounds = table.partition_bounds(3)
        parts = table.partition(3)
        sizes = np.diff(bounds)
        assert sizes.tolist() == [p.num_rows for p in parts]

    def test_partition_remainder_lands_on_later_partitions(self):
        table = Table("t", {"x": np.arange(10)})
        assert [p.num_rows for p in table.partition(3)] == [3, 3, 4]
        with pytest.raises(PlanError):
            table.partition_bounds(0)


class TestRowStreaming:
    def test_iter_rows_projection(self, table):
        rows = list(table.iter_rows(["a", "s"]))
        assert rows[0] == (1, "x")
        assert len(rows) == 5

    def test_rows_materialized(self, table):
        assert table.rows(["a"]) == [(1,), (2,), (3,), (4,), (5,)]

    def test_repr(self, table):
        assert "rows=5" in repr(table)


class TestCsvRoundTrip:
    def test_roundtrip_numeric(self, table, tmp_path):
        from repro.engine.table import table_from_csv

        path = tmp_path / "t.csv"
        table_to_csv(table, str(path))
        loaded = table_from_csv(str(path), name="t")
        assert loaded.column_names == table.column_names
        assert loaded["a"].tolist() == table["a"].tolist()
        assert loaded["b"].tolist() == table["b"].tolist()
        assert loaded["s"].tolist() == table["s"].tolist()

    def test_type_inference(self, tmp_path):
        from repro.engine.table import table_from_csv

        path = tmp_path / "mixed.csv"
        path.write_text("i,f,s\n1,1.5,abc\n2,2.5,def\n")
        loaded = table_from_csv(str(path))
        assert loaded["i"].dtype.kind == "i"
        assert loaded["f"].dtype.kind == "f"
        assert loaded["s"].dtype.kind in ("U", "O")

    def test_ragged_csv_rejected(self, tmp_path):
        from repro.engine.table import table_from_csv

        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(PlanError, match="row 2"):
            table_from_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        from repro.engine.table import table_from_csv

        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(PlanError):
            table_from_csv(str(path))

    def test_query_over_loaded_csv(self, tmp_path):
        from repro.engine.cluster import Cluster
        from repro.engine.sql import parse
        from repro.engine.table import table_from_csv

        path = tmp_path / "ratings.csv"
        path.write_text(
            "name,taste,texture\n"
            "Pizza,7,5\nCheetos,8,6\nJello,9,4\nBurger,5,7\nFries,3,3\n"
        )
        table = table_from_csv(str(path), name="Ratings")
        query = parse("SELECT name FROM Ratings SKYLINE OF taste, texture")
        result = Cluster(workers=2).run_verified(query, {"Ratings": table})
        assert result.output == {(8.0, 6.0), (9.0, 4.0), (5.0, 7.0)}
