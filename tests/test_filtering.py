"""Tests for filtering and formula decomposition (repro.core.filtering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import PruneDecision
from repro.core.filtering import (
    FALSE,
    TRUE,
    And,
    Atom,
    FilterPruner,
    Not,
    Or,
    TruthTable,
    Var,
)
from repro.errors import ConfigurationError


def _atom(name, fn, supported=True):
    return Var(Atom(name=name, evaluate=fn, supported=supported))


# Entries are dicts; atoms read fields.
TASTE5 = _atom("taste>5", lambda e: e["taste"] > 5)
TEXTURE4 = _atom("texture>4", lambda e: e["texture"] > 4)
NAME_LIKE = _atom("name LIKE e%s", lambda e: e["name"].startswith("e") and e["name"].endswith("s"), supported=False)


class TestFormulaEvaluation:
    def test_var(self):
        assert TASTE5.evaluate({"taste": 7}) is True
        assert TASTE5.evaluate({"taste": 3}) is False

    def test_and_or_not(self):
        entry = {"taste": 7, "texture": 3}
        assert And(TASTE5, TEXTURE4).evaluate(entry) is False
        assert Or(TASTE5, TEXTURE4).evaluate(entry) is True
        assert Not(TEXTURE4).evaluate(entry) is True

    def test_constants(self):
        assert TRUE.evaluate({}) is True
        assert FALSE.evaluate({}) is False

    def test_operator_sugar(self):
        entry = {"taste": 7, "texture": 5}
        combined = (TASTE5 & TEXTURE4) | ~TASTE5
        assert combined.evaluate(entry) is True

    def test_empty_connectives_raise(self):
        with pytest.raises(ConfigurationError):
            And()
        with pytest.raises(ConfigurationError):
            Or()


class TestRelaxation:
    """The §4.1 decomposition: unsupported atoms become tautologies."""

    def test_paper_example(self):
        # (taste>5) OR (texture>4 AND name LIKE e%s)
        #   relaxes to (taste>5) OR (texture>4).
        formula = Or(TASTE5, And(TEXTURE4, NAME_LIKE))
        relaxed = repr(formula.relax().simplify())
        assert "LIKE" not in relaxed
        assert "taste>5" in relaxed
        assert "texture>4" in relaxed

    def test_relaxed_is_implied_by_original(self):
        # Soundness: original true => relaxed true, on every assignment.
        formula = Or(And(TASTE5, NAME_LIKE), And(TEXTURE4, Not(NAME_LIKE)))
        relaxed = formula.relax().simplify()
        for taste in (3, 7):
            for texture in (3, 7):
                for name in ("eggs", "ham"):
                    entry = {"taste": taste, "texture": texture, "name": name}
                    if formula.evaluate(entry):
                        assert relaxed.evaluate(entry)

    def test_negated_unsupported_becomes_true(self):
        # NOT(unsupported) must relax to TRUE, not FALSE.
        formula = Not(NAME_LIKE)
        relaxed = formula.relax().simplify()
        assert isinstance(relaxed, type(TRUE))

    def test_all_unsupported_relaxes_to_true(self):
        relaxed = And(NAME_LIKE, Not(NAME_LIKE)).relax().simplify()
        assert relaxed.evaluate({"name": "x"}) is True

    def test_supported_atoms_survive(self):
        relaxed = And(TASTE5, NAME_LIKE).relax().simplify()
        assert relaxed.evaluate({"taste": 7, "name": "zz"}) is True
        assert relaxed.evaluate({"taste": 3, "name": "zz"}) is False

    def test_double_negation_simplifies(self):
        assert repr(Not(Not(TASTE5)).simplify()) == "taste>5"

    def test_constant_folding(self):
        assert isinstance(And(TRUE, TRUE).simplify(), type(TRUE))
        assert isinstance(And(TASTE5, FALSE).simplify(), type(FALSE))
        assert isinstance(Or(FALSE, FALSE).simplify(), type(FALSE))
        assert isinstance(Or(TASTE5, TRUE).simplify(), type(TRUE))


class TestTruthTable:
    def test_rule_count_and_accepts(self):
        formula = Or(TASTE5, TEXTURE4)
        table = TruthTable.from_formula(formula)
        assert table.rule_count() == 3  # 01, 10, 11
        assert table.accepts({"taste": 9, "texture": 0})
        assert not table.accepts({"taste": 0, "texture": 0})

    def test_vector_of(self):
        formula = And(TASTE5, TEXTURE4)
        table = TruthTable.from_formula(formula)
        assert table.vector_of({"taste": 9, "texture": 9}) == 0b11
        assert table.vector_of({"taste": 9, "texture": 0}) in (0b01, 0b10)

    def test_too_many_atoms_rejected(self):
        atoms = [_atom(f"a{i}", lambda e: True) for i in range(17)]
        with pytest.raises(ConfigurationError):
            TruthTable.from_formula(And(*atoms))

    def test_matches_formula_on_all_assignments(self):
        formula = Or(And(TASTE5, Not(TEXTURE4)), TEXTURE4)
        table = TruthTable.from_formula(formula)
        for taste in (0, 9):
            for texture in (0, 9):
                entry = {"taste": taste, "texture": texture}
                assert table.accepts(entry) == formula.evaluate(entry)

    @pytest.mark.parametrize("width", [0, 3, 16])
    def test_accepts_batch_equals_accepts_on_every_vector(self, width):
        """The batch lookup indexes the exact-match table; row ``v`` of the
        batch sets atom ``i`` iff bit ``i`` of ``v`` is set, so all ``2^k``
        vectors are looked up once.  Atom 1 has no batch evaluator and
        takes the per-row fallback."""

        def column_atom(i):
            return Var(Atom(
                name=f"c{i}>0",
                evaluate=lambda e: e[i] > 0,
                evaluate_batch=None if i == 1 else (lambda columns: columns[i] > 0),
            ))

        atoms = [column_atom(i) for i in range(width)]
        if width == 0:
            formula = TRUE
        elif width == 3:
            formula = Or(And(atoms[0], atoms[1]), Not(atoms[2]))
        else:  # each pair accepts on exactly one of its four vectors
            formula = Or(*(And(atoms[i], Not(atoms[i + 1])) for i in range(0, width, 2)))
        table = TruthTable.from_formula(formula)
        vectors = np.arange(1 << width)
        columns = tuple((vectors >> i) & 1 for i in range(width)) or (vectors,)
        got = table.accepts_batch(columns, len(vectors))
        expected = [table.accepts(tuple(c[v] for c in columns)) for v in vectors.tolist()]
        assert got.dtype == bool and got.tolist() == expected
        assert int(got.sum()) == table.rule_count()
        if width:
            assert table.vectors_batch(columns, len(vectors)).tolist() == vectors.tolist()


class TestFilterPruner:
    def test_prunes_relaxed_failures(self):
        pruner = FilterPruner(Or(TASTE5, And(TEXTURE4, NAME_LIKE)))
        entry = {"taste": 1, "texture": 1, "name": "eggs"}
        assert pruner.process(entry) is PruneDecision.PRUNE

    def test_forwards_relaxed_passes_even_if_full_fails(self):
        # texture>4 passes the relaxed formula; the LIKE makes the full
        # formula false — the master removes it, not the switch.
        pruner = FilterPruner(Or(TASTE5, And(TEXTURE4, NAME_LIKE)))
        entry = {"taste": 1, "texture": 9, "name": "ham"}
        assert pruner.process(entry) is PruneDecision.FORWARD
        assert pruner.formula.evaluate(entry) is False  # the master drops it

    def test_never_prunes_a_matching_entry(self):
        # The pruning contract for filters: full-formula-true is never pruned.
        pruner = FilterPruner(Or(And(TASTE5, NAME_LIKE), TEXTURE4))
        for taste in (0, 9):
            for texture in (0, 9):
                for name in ("eggs", "ham"):
                    entry = {"taste": taste, "texture": texture, "name": name}
                    full = pruner.formula.evaluate(entry)
                    decision = pruner.process(entry)
                    if full:
                        assert decision is PruneDecision.FORWARD

    def test_worker_assist_prunes_exactly(self):
        pruner = FilterPruner(
            Or(TASTE5, And(TEXTURE4, NAME_LIKE)), worker_assist=True
        )
        fails = {"taste": 1, "texture": 9, "name": "ham"}
        passes = {"taste": 1, "texture": 9, "name": "eggs"}
        assert pruner.process(fails) is PruneDecision.PRUNE
        assert pruner.process(passes) is PruneDecision.FORWARD

    def test_stats_track_decisions(self):
        pruner = FilterPruner(TASTE5)
        pruner.process({"taste": 9})
        pruner.process({"taste": 1})
        assert pruner.stats.processed == 2
        assert pruner.stats.pruned == 1
        assert pruner.stats.pruning_rate == 0.5

    def test_footprint_counts_switch_predicates(self):
        pruner = FilterPruner(Or(TASTE5, And(TEXTURE4, NAME_LIKE)))
        assert pruner.footprint().alus == 2  # LIKE relaxed away

    def test_survivors_helper(self):
        pruner = FilterPruner(TASTE5)
        entries = [{"taste": t} for t in (1, 6, 2, 9)]
        assert pruner.survivors(entries) == [{"taste": 6}, {"taste": 9}]
