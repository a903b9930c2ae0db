"""Tests for predicate expressions (repro.engine.expressions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.expressions import Between, Compare, Like, col
from repro.engine.table import Table
from repro.errors import PlanError


@pytest.fixture
def table():
    return Table(
        "t",
        {
            "taste": np.array([7, 8, 9, 5, 3]),
            "texture": np.array([5, 6, 4, 7, 3]),
            "name": np.array(["pizza", "cheetos", "jello", "burger", "eggs"]),
        },
    )


class TestCompare:
    def test_gt_mask(self, table):
        assert (col("taste") > 5).mask(table).tolist() == [True, True, True, False, False]

    def test_all_operators(self, table):
        assert (col("taste") >= 7).mask(table).sum() == 3
        assert (col("taste") < 5).mask(table).sum() == 1
        assert (col("taste") <= 5).mask(table).sum() == 2
        assert Compare("taste", "==", 8).mask(table).sum() == 1
        assert Compare("taste", "!=", 8).mask(table).sum() == 4

    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanError):
            Compare("taste", "~", 5)

    def test_columns(self):
        assert (col("taste") > 5).columns() == ["taste"]

    def test_formula_evaluates_row_tuples(self):
        expr = col("taste") > 5
        formula = expr.to_formula(["taste", "texture"])
        assert formula.evaluate((7, 0)) is True
        assert formula.evaluate((3, 9)) is False

    def test_formula_atom_is_supported(self):
        formula = (col("taste") > 5).to_formula(["taste"])
        assert all(atom.supported for atom in formula.atoms())

    def test_formula_unknown_column_raises(self):
        with pytest.raises(PlanError):
            (col("taste") > 5).to_formula(["texture"])


class TestLike:
    def test_mask_with_wildcards(self, table):
        assert Like("name", "e%s").mask(table).tolist() == [
            False, False, False, False, True,
        ]

    def test_percent_matches_any_run(self, table):
        assert Like("name", "%e%").mask(table).sum() == 4  # cheetos jello burger eggs

    def test_underscore_matches_one_char(self, table):
        assert Like("name", "p_zza").mask(table).tolist()[0] is True

    def test_formula_atom_not_supported(self):
        formula = Like("name", "e%s").to_formula(["name"])
        assert all(not atom.supported for atom in formula.atoms())


class TestBetween:
    def test_mask_inclusive(self, table):
        assert Between("taste", 5, 8).mask(table).tolist() == [
            True, True, False, True, False,
        ]

    def test_formula_is_two_supported_comparisons(self):
        formula = Between("taste", 5, 8).to_formula(["taste"])
        atoms = formula.atoms()
        assert len(atoms) == 2
        assert all(atom.supported for atom in atoms)
        assert formula.evaluate((6,)) is True
        assert formula.evaluate((9,)) is False


class TestConnectives:
    def test_and(self, table):
        expr = (col("taste") > 5) & (col("texture") > 4)
        assert expr.mask(table).tolist() == [True, True, False, False, False]

    def test_or(self, table):
        expr = (col("taste") > 8) | (col("texture") > 6)
        assert expr.mask(table).tolist() == [False, False, True, True, False]

    def test_not(self, table):
        expr = ~(col("taste") > 5)
        assert expr.mask(table).sum() == 2

    def test_paper_example_mask(self, table):
        # (taste > 5) OR (texture > 4 AND name LIKE e%s)
        expr = (col("taste") > 5) | ((col("texture") > 4) & Like("name", "e%s"))
        assert expr.mask(table).tolist() == [True, True, True, False, False]

    def test_nested_columns_deduped(self):
        expr = (col("a") > 1) & ((col("a") < 5) | (col("b") > 0))
        assert expr.columns() == ["a", "b"]

    def test_formula_matches_mask_semantics(self, table):
        expr = ((col("taste") > 5) & (col("texture") > 4)) | Like("name", "j%")
        columns = expr.columns()
        formula = expr.to_formula(columns)
        mask = expr.mask(table)
        for i, row in enumerate(table.iter_rows(columns)):
            assert formula.evaluate(row) == bool(mask[i])

    def test_repr_readable(self):
        expr = (col("taste") > 5) & ~Like("name", "x%")
        text = repr(expr)
        assert "taste" in text and "LIKE" in text
