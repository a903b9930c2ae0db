"""Filtering pruning and monotone-formula decomposition (paper §4.1).

A WHERE clause is a Boolean formula over basic predicates.  Some
predicates evaluate on the switch (numeric comparisons); others do not
(``LIKE``, arithmetic beyond add/shift).  Cheetah's query compiler
replaces each unsupported predicate with a tautology and reduces, giving a
*weaker* formula computable on the switch: every entry satisfying the full
WHERE also satisfies the relaxed one, so pruning on the relaxed formula is
always safe and the master removes the rest.

Two dataplane strategies are implemented:

* :class:`FilterPruner` — evaluates the relaxed formula directly.
* the truth-table path (:class:`TruthTable`) — compute each supported
  basic predicate into one bit, concatenate into a bit vector, look the
  vector up in a match-action table ("Cheetah writes the values of the
  predicates as a bit vector and looks up the value in a truth table").

With ``worker_assist=True`` the CWorker pre-computes the unsupported
predicates and ships their bits in the packet, so the switch evaluates the
*full* formula and pruning becomes exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..switch.compiler import footprint_filtering
from ..switch.resources import ResourceFootprint
from .base import Entry, Guarantee, PruneDecision, Pruner


@dataclass(frozen=True)
class Atom:
    """A basic predicate: a name, an evaluator, and switch support.

    ``supported=False`` marks predicates the dataplane cannot compute
    (string LIKE, multiplication, ...); the relaxation replaces them with
    constants according to polarity.  ``evaluate_batch``, when provided,
    maps a tuple of column arrays (same layout as the entry tuples) to a
    boolean array equal to evaluating each row scalar-wise.
    """

    name: str
    evaluate: Callable[[object], bool]
    supported: bool = True
    evaluate_batch: Optional[Callable[[Tuple], "np.ndarray"]] = None

    def __repr__(self) -> str:  # dataclass repr would print the lambda
        flag = "" if self.supported else "~switch"
        return f"Atom({self.name}{', ' + flag if flag else ''})"


class Formula:
    """Base of the Boolean formula AST."""

    def evaluate(self, entry: object) -> bool:
        """Full (master-side) evaluation."""
        raise NotImplementedError

    def relax(self, polarity: bool = True) -> "Formula":
        """Replace unsupported atoms with polarity-correct constants.

        Positive-polarity unsupported atoms become TRUE and negative ones
        FALSE, so the relaxed formula is implied by the original — the
        paper's tautology substitution generalized to non-monotone
        formulas.
        """
        raise NotImplementedError

    def atoms(self) -> List[Atom]:
        """Atoms appearing in the formula, in first-appearance order."""
        raise NotImplementedError

    def simplify(self) -> "Formula":
        """Constant-fold TRUE/FALSE leaves."""
        return self

    # Operator sugar for building formulas in examples/tests.
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


class TrueF(Formula):
    """The constant TRUE."""

    def evaluate(self, entry: object) -> bool:
        return True

    def relax(self, polarity: bool = True) -> Formula:
        return self

    def atoms(self) -> List[Atom]:
        return []

    def __repr__(self) -> str:
        return "T"


class FalseF(Formula):
    """The constant FALSE."""

    def evaluate(self, entry: object) -> bool:
        return False

    def relax(self, polarity: bool = True) -> Formula:
        return self

    def atoms(self) -> List[Atom]:
        return []

    def __repr__(self) -> str:
        return "F"


TRUE = TrueF()
FALSE = FalseF()


class Var(Formula):
    """A leaf referencing one basic predicate."""

    def __init__(self, atom: Atom) -> None:
        self.atom = atom

    def evaluate(self, entry: object) -> bool:
        return bool(self.atom.evaluate(entry))

    def relax(self, polarity: bool = True) -> Formula:
        if self.atom.supported:
            return self
        return TRUE if polarity else FALSE

    def atoms(self) -> List[Atom]:
        return [self.atom]

    def __repr__(self) -> str:
        return self.atom.name


class Not(Formula):
    """Negation; flips polarity during relaxation."""

    def __init__(self, child: Formula) -> None:
        self.child = child

    def evaluate(self, entry: object) -> bool:
        return not self.child.evaluate(entry)

    def relax(self, polarity: bool = True) -> Formula:
        return Not(self.child.relax(not polarity)).simplify()

    def atoms(self) -> List[Atom]:
        return self.child.atoms()

    def simplify(self) -> Formula:
        child = self.child.simplify()
        if isinstance(child, TrueF):
            return FALSE
        if isinstance(child, FalseF):
            return TRUE
        if isinstance(child, Not):
            return child.child
        return Not(child)

    def __repr__(self) -> str:
        return f"~{self.child!r}"


class And(Formula):
    """Conjunction."""

    def __init__(self, *children: Formula) -> None:
        if not children:
            raise ConfigurationError("And needs at least one child")
        self.children = list(children)

    def evaluate(self, entry: object) -> bool:
        return all(child.evaluate(entry) for child in self.children)

    def relax(self, polarity: bool = True) -> Formula:
        return And(*(child.relax(polarity) for child in self.children)).simplify()

    def atoms(self) -> List[Atom]:
        seen: List[Atom] = []
        for child in self.children:
            for atom in child.atoms():
                if atom not in seen:
                    seen.append(atom)
        return seen

    def simplify(self) -> Formula:
        folded: List[Formula] = []
        for child in self.children:
            child = child.simplify()
            if isinstance(child, FalseF):
                return FALSE
            if isinstance(child, TrueF):
                continue
            folded.append(child)
        if not folded:
            return TRUE
        if len(folded) == 1:
            return folded[0]
        return And(*folded)

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(c) for c in self.children) + ")"


class Or(Formula):
    """Disjunction."""

    def __init__(self, *children: Formula) -> None:
        if not children:
            raise ConfigurationError("Or needs at least one child")
        self.children = list(children)

    def evaluate(self, entry: object) -> bool:
        return any(child.evaluate(entry) for child in self.children)

    def relax(self, polarity: bool = True) -> Formula:
        return Or(*(child.relax(polarity) for child in self.children)).simplify()

    def atoms(self) -> List[Atom]:
        seen: List[Atom] = []
        for child in self.children:
            for atom in child.atoms():
                if atom not in seen:
                    seen.append(atom)
        return seen

    def simplify(self) -> Formula:
        folded: List[Formula] = []
        for child in self.children:
            child = child.simplify()
            if isinstance(child, TrueF):
                return TRUE
            if isinstance(child, FalseF):
                continue
            folded.append(child)
        if not folded:
            return FALSE
        if len(folded) == 1:
            return folded[0]
        return Or(*folded)

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(c) for c in self.children) + ")"


class TruthTable:
    """The bit-vector match-action encoding of a formula (§4.1).

    ``from_formula`` enumerates all assignments of the formula's atoms and
    records which bit vectors evaluate TRUE — exactly what the control
    plane installs as match-action rules.  The dataplane computes one bit
    per atom and indexes the table.
    """

    def __init__(self, atoms: Sequence[Atom], accepting: FrozenSet[int]) -> None:
        self.atom_order = list(atoms)
        self.accepting = accepting
        # The exact-match table itself: entry v says whether vector v accepts.
        self._table = np.zeros(1 << len(self.atom_order), dtype=bool)
        self._table[list(accepting)] = True

    @classmethod
    def from_formula(cls, formula: Formula) -> "TruthTable":
        atoms = formula.atoms()
        if len(atoms) > 16:
            raise ConfigurationError(
                f"truth table over {len(atoms)} predicates is too wide for a "
                "match-action table; decompose the query"
            )
        accepting = set()
        # Each atom's truth is bit i of the assignment.
        for bits in range(1 << len(atoms)):
            env = {atom.name: bool(bits >> i & 1) for i, atom in enumerate(atoms)}
            if _evaluate_with_env(formula, env):
                accepting.add(bits)
        return cls(atoms, frozenset(accepting))

    def vector_of(self, entry: object) -> int:
        """The dataplane bit vector for ``entry`` (one bit per atom)."""
        bits = 0
        for i, atom in enumerate(self.atom_order):
            if atom.evaluate(entry):
                bits |= 1 << i
        return bits

    def accepts(self, entry: object) -> bool:
        """Table lookup: forward iff the bit vector is accepting."""
        return self.vector_of(entry) in self.accepting

    def vectors_batch(self, columns: Tuple, count: int) -> np.ndarray:
        """Vectorized :meth:`vector_of` over a columnar batch.

        Atoms carrying ``evaluate_batch`` run as one array op; the rest
        (e.g. LIKE bits under worker assist) fall back to a per-row loop
        over reconstructed entry tuples — identical bits either way.
        """
        bits = np.zeros(count, dtype=np.int64)
        for i, atom in enumerate(self.atom_order):
            if atom.evaluate_batch is not None:
                atom_bits = np.asarray(atom.evaluate_batch(columns), dtype=bool)
            else:
                atom_bits = np.fromiter(
                    (
                        bool(atom.evaluate(tuple(column[j] for column in columns)))
                        for j in range(count)
                    ),
                    dtype=bool,
                    count=count,
                )
            bits |= atom_bits.astype(np.int64) << i
        return bits

    def accepts_batch(self, columns: Tuple, count: int) -> np.ndarray:
        """Vectorized :meth:`accepts`: one table lookup per bit vector."""
        return self._table[self.vectors_batch(columns, count)]

    def rule_count(self) -> int:
        """Number of installed match rules (accepting vectors)."""
        return len(self.accepting)


def _as_columns(entries) -> Tuple[Tuple, int]:
    """Normalize a batch to ``(column_arrays, count)``.

    A tuple/list whose elements are all numpy arrays is already columnar;
    anything else is treated as a sequence of row tuples and transposed.
    """
    if (
        isinstance(entries, (tuple, list))
        and len(entries) > 0
        and all(isinstance(column, np.ndarray) for column in entries)
    ):
        return tuple(entries), len(entries[0])
    count = len(entries)
    if count == 0:
        return (), 0
    width = len(entries[0])
    columns = tuple(
        np.asarray([entry[i] for entry in entries]) for i in range(width)
    )
    return columns, count


def _evaluate_with_env(formula: Formula, env: Dict[str, bool]) -> bool:
    """Evaluate a formula under an explicit atom-name assignment."""
    if isinstance(formula, Var):
        return env[formula.atom.name]
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, Not):
        return not _evaluate_with_env(formula.child, env)
    if isinstance(formula, And):
        return all(_evaluate_with_env(c, env) for c in formula.children)
    if isinstance(formula, Or):
        return any(_evaluate_with_env(c, env) for c in formula.children)
    raise ConfigurationError(f"unknown formula node {type(formula)!r}")


class FilterPruner(Pruner[Entry]):
    """Prune entries failing the switch-computable relaxation of a WHERE.

    Parameters
    ----------
    formula:
        The full WHERE formula over :class:`Atom` leaves.
    worker_assist:
        When true, the CWorker computes unsupported predicates and ships
        their bits, so the switch evaluates the full formula (exact
        pruning).  When false, unsupported atoms are relaxed away and the
        master must re-check the full formula on survivors.
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(self, formula: Formula, worker_assist: bool = False) -> None:
        super().__init__()
        self.formula = formula
        self.worker_assist = worker_assist
        self.relaxed = formula if worker_assist else formula.relax().simplify()
        switch_atoms = [a for a in self.relaxed.atoms()]
        self._truth_table = TruthTable.from_formula(self.relaxed)
        self._num_predicates = max(1, len(switch_atoms))

    def process(self, entry: Entry) -> PruneDecision:
        decision = (
            PruneDecision.FORWARD
            if self._truth_table.accepts(entry)
            else PruneDecision.PRUNE
        )
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Vectorized filtering over a batch.

        Accepts either a sequence of entry tuples or the columnar form —
        a tuple/list of equal-length arrays, one per streamed column in
        entry-tuple order.  Every switch-supported predicate evaluates as
        one numpy comparison over its column.
        """
        columns, count = _as_columns(entries)
        if count == 0:
            return np.zeros(0, dtype=bool)
        forward = self._truth_table.accepts_batch(columns, count)
        self.stats.record_batch(count, count - int(forward.sum()))
        return forward

    def footprint(self) -> ResourceFootprint:
        return footprint_filtering(predicates=self._num_predicates)

    def observe_health(self) -> None:
        """Publish the relaxed formula's switch-evaluated predicate count."""
        self.metrics.gauge(
            "filter_switch_predicates",
            "Predicates the switch evaluates for the relaxed formula.",
            pruner=type(self).__name__,
        ).set(self._num_predicates)
