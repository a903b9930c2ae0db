"""Predicate expressions over table columns.

The AST serves three consumers:

* the reference executor — vectorized evaluation over a whole
  :class:`~repro.engine.table.Table` (:meth:`Expr.mask`);
* the Cheetah dataplane — each comparison lowers to a
  :class:`~repro.core.filtering.Atom` over row tuples, flagged with
  whether the switch supports it (numeric comparisons yes, ``LIKE`` and
  arithmetic beyond add/shift no), feeding the §4.1 decomposition;
* display/debugging via ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..core.filtering import And as FAnd
from ..core.filtering import Atom, Formula
from ..core.filtering import Not as FNot
from ..core.filtering import Or as FOr
from ..core.filtering import Var
from ..errors import PlanError
from .table import Table

_NUMERIC_OPS: Dict[str, Callable] = {
    ">": np.greater,
    ">=": np.greater_equal,
    "<": np.less,
    "<=": np.less_equal,
    "==": np.equal,
    "!=": np.not_equal,
}

#: Operators the switch dataplane can evaluate (§2.2's function set).
SWITCH_SUPPORTED_OPS = frozenset(_NUMERIC_OPS)


class Expr:
    """Base of the predicate AST."""

    def mask(self, table: Table) -> np.ndarray:
        """Vectorized evaluation: boolean keep-mask over ``table``."""
        raise NotImplementedError

    def to_formula(self, columns: Sequence[str]) -> Formula:
        """Lower to the core filtering formula over row-tuple atoms.

        ``columns`` fixes the row-tuple layout: atom evaluators receive a
        tuple whose fields follow this order (the packet's value layout).
        """
        raise NotImplementedError

    def columns(self) -> List[str]:
        """Columns referenced, in first-appearance order."""
        raise NotImplementedError

    def __and__(self, other: "Expr") -> "Expr":
        return AndExpr(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return OrExpr(self, other)

    def __invert__(self) -> "Expr":
        return NotExpr(self)


@dataclass(frozen=True)
class Compare(Expr):
    """``column <op> literal`` — switch-supported for numeric operators."""

    column: str
    op: str
    literal: object

    def __post_init__(self) -> None:
        if self.op not in _NUMERIC_OPS:
            raise PlanError(f"unknown comparison operator {self.op!r}")

    def mask(self, table: Table) -> np.ndarray:
        return _NUMERIC_OPS[self.op](table.column(self.column), self.literal)

    def to_formula(self, columns: Sequence[str]) -> Formula:
        index = _index_of(columns, self.column)
        op_fn = _NUMERIC_OPS[self.op]
        literal = self.literal

        def evaluate(entry: object) -> bool:
            return bool(op_fn(entry[index], literal))

        def evaluate_batch(columns_arrays: Tuple) -> np.ndarray:
            return op_fn(columns_arrays[index], literal)

        return Var(
            Atom(
                name=f"{self.column}{self.op}{self.literal}",
                evaluate=evaluate,
                evaluate_batch=evaluate_batch,
            )
        )

    def columns(self) -> List[str]:
        return [self.column]

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.literal!r})"


@dataclass(frozen=True)
class Like(Expr):
    """``column LIKE pattern`` — NOT switch-supported (string matching).

    Patterns use SQL wildcards: ``%`` for any run, ``_`` for one char.
    """

    column: str
    pattern: str

    def _match(self, value: object) -> bool:
        glob = self.pattern.replace("%", "*").replace("_", "?")
        return fnmatchcase(str(value), glob)

    def mask(self, table: Table) -> np.ndarray:
        column = table.column(self.column)
        return np.array([self._match(v) for v in column], dtype=bool)

    def to_formula(self, columns: Sequence[str]) -> Formula:
        index = _index_of(columns, self.column)

        def evaluate(entry: object) -> bool:
            return self._match(entry[index])

        def evaluate_batch(columns_arrays: Tuple) -> np.ndarray:
            column = columns_arrays[index]
            return np.fromiter(
                (self._match(value) for value in column),
                dtype=bool,
                count=len(column),
            )

        return Var(
            Atom(
                name=f"{self.column} LIKE {self.pattern!r}",
                evaluate=evaluate,
                supported=False,
                evaluate_batch=evaluate_batch,
            )
        )

    def columns(self) -> List[str]:
        return [self.column]

    def __repr__(self) -> str:
        return f"({self.column} LIKE {self.pattern!r})"


@dataclass(frozen=True)
class Between(Expr):
    """``lo <= column <= hi`` — two switch comparisons."""

    column: str
    lo: object
    hi: object

    def mask(self, table: Table) -> np.ndarray:
        values = table.column(self.column)
        return (values >= self.lo) & (values <= self.hi)

    def to_formula(self, columns: Sequence[str]) -> Formula:
        return FAnd(
            Compare(self.column, ">=", self.lo).to_formula(columns),
            Compare(self.column, "<=", self.hi).to_formula(columns),
        )

    def columns(self) -> List[str]:
        return [self.column]

    def __repr__(self) -> str:
        return f"({self.lo!r} <= {self.column} <= {self.hi!r})"


class AndExpr(Expr):
    """Conjunction of sub-expressions."""

    def __init__(self, *children: Expr) -> None:
        if not children:
            raise PlanError("AND needs at least one child")
        self.children = list(children)

    def mask(self, table: Table) -> np.ndarray:
        result = self.children[0].mask(table)
        for child in self.children[1:]:
            result = result & child.mask(table)
        return result

    def to_formula(self, columns: Sequence[str]) -> Formula:
        return FAnd(*(child.to_formula(columns) for child in self.children))

    def columns(self) -> List[str]:
        return _merge_columns(self.children)

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(c) for c in self.children) + ")"


class OrExpr(Expr):
    """Disjunction of sub-expressions."""

    def __init__(self, *children: Expr) -> None:
        if not children:
            raise PlanError("OR needs at least one child")
        self.children = list(children)

    def mask(self, table: Table) -> np.ndarray:
        result = self.children[0].mask(table)
        for child in self.children[1:]:
            result = result | child.mask(table)
        return result

    def to_formula(self, columns: Sequence[str]) -> Formula:
        return FOr(*(child.to_formula(columns) for child in self.children))

    def columns(self) -> List[str]:
        return _merge_columns(self.children)

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(c) for c in self.children) + ")"


class NotExpr(Expr):
    """Negation of a sub-expression."""

    def __init__(self, child: Expr) -> None:
        self.child = child

    def mask(self, table: Table) -> np.ndarray:
        return ~self.child.mask(table)

    def to_formula(self, columns: Sequence[str]) -> Formula:
        return FNot(self.child.to_formula(columns))

    def columns(self) -> List[str]:
        return self.child.columns()

    def __repr__(self) -> str:
        return f"(NOT {self.child!r})"


def col(name: str) -> "ColumnRef":
    """Entry point for the fluent builder: ``col('taste') > 5``."""
    return ColumnRef(name)


@dataclass(frozen=True)
class ColumnRef:
    """A column name awaiting a comparison operator."""

    name: str

    def __gt__(self, other: object) -> Compare:
        return Compare(self.name, ">", other)

    def __ge__(self, other: object) -> Compare:
        return Compare(self.name, ">=", other)

    def __lt__(self, other: object) -> Compare:
        return Compare(self.name, "<", other)

    def __le__(self, other: object) -> Compare:
        return Compare(self.name, "<=", other)


def _index_of(columns: Sequence[str], name: str) -> int:
    try:
        return list(columns).index(name)
    except ValueError:
        raise PlanError(
            f"column {name!r} not in streamed columns {list(columns)}"
        ) from None


def _merge_columns(children: Sequence[Expr]) -> List[str]:
    seen: List[str] = []
    for child in children:
        for column in child.columns():
            if column not in seen:
                seen.append(column)
    return seen
