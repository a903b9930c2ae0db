"""Logical query plans: one Cheetah-accelerated operator plus a WHERE.

The paper evaluates per-operator queries (Appendix B) and simple
compositions (filter + group-by, join + the rest of TPC-H Q3), so a plan
here is a single primary operator with an optional filter, over one or two
tables.  Each operator knows the columns the CWorker must stream (the
metadata pass of late materialization).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

from ..errors import PlanError
from .expressions import Expr


def _canonical(value: object) -> str:
    """Deterministic rendering of an operator field for cache keys.

    Expressions render through their canonical ``repr`` (the parser has
    already normalized keyword case and whitespace into the AST), and
    sequences render element-wise so tuple-vs-list construction does not
    change the key.
    """
    if isinstance(value, Expr):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_canonical(item) for item in value) + ")"
    return repr(value)


class Operator:
    """Base class of the plan operators."""

    #: Name of the table this operator scans.
    table: str

    def stream_columns(self) -> List[str]:
        """Columns the CWorker streams for this operator."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner for logs and benchmark tables."""
        raise NotImplementedError


@dataclass(frozen=True)
class CountOp(Operator):
    """``SELECT COUNT(*) FROM table WHERE predicate`` (BigData query A)."""

    table: str
    predicate: Expr

    def stream_columns(self) -> List[str]:
        return self.predicate.columns()

    def describe(self) -> str:
        return f"COUNT(*) FROM {self.table} WHERE {self.predicate!r}"


@dataclass(frozen=True)
class FilterOp(Operator):
    """``SELECT * FROM table WHERE predicate`` (row ids via late materialization)."""

    table: str
    predicate: Expr

    def stream_columns(self) -> List[str]:
        return self.predicate.columns()

    def describe(self) -> str:
        return f"SELECT * FROM {self.table} WHERE {self.predicate!r}"


@dataclass(frozen=True)
class DistinctOp(Operator):
    """``SELECT DISTINCT columns FROM table``."""

    table: str
    columns: Sequence[str]

    def __post_init__(self) -> None:
        if not self.columns:
            raise PlanError("DISTINCT needs at least one column")

    def stream_columns(self) -> List[str]:
        return list(self.columns)

    def describe(self) -> str:
        return f"SELECT DISTINCT {', '.join(self.columns)} FROM {self.table}"


@dataclass(frozen=True)
class TopNOp(Operator):
    """``SELECT TOP n ... ORDER BY order_by [DESC|ASC]``.

    ``descending=True`` (the default, and the paper's case) returns the
    largest values; ascending ("bottom N") is supported by negating the
    streamed value — the trick MySQL's LIMIT/ORDER BY engines use too.
    """

    table: str
    order_by: str
    n: int
    descending: bool = True

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise PlanError(f"TOP N needs positive n, got {self.n}")

    def stream_columns(self) -> List[str]:
        return [self.order_by]

    def describe(self) -> str:
        direction = "DESC" if self.descending else "ASC"
        return (
            f"SELECT TOP {self.n} FROM {self.table} "
            f"ORDER BY {self.order_by} {direction}"
        )


@dataclass(frozen=True)
class GroupByOp(Operator):
    """``SELECT key, AGG(value) FROM table GROUP BY key`` (AGG in min/max)."""

    table: str
    key: str
    value: str
    aggregate: str = "max"

    def stream_columns(self) -> List[str]:
        return [self.key, self.value]

    def describe(self) -> str:
        return (
            f"SELECT {self.key}, {self.aggregate.upper()}({self.value}) "
            f"FROM {self.table} GROUP BY {self.key}"
        )


@dataclass(frozen=True)
class HavingOp(Operator):
    """``SELECT key FROM table GROUP BY key HAVING AGG(value) > threshold``."""

    table: str
    key: str
    value: str
    threshold: float
    aggregate: str = "sum"

    def stream_columns(self) -> List[str]:
        return [self.key, self.value]

    def describe(self) -> str:
        return (
            f"SELECT {self.key} FROM {self.table} GROUP BY {self.key} "
            f"HAVING {self.aggregate.upper()}({self.value}) > {self.threshold}"
        )


@dataclass(frozen=True)
class JoinOp(Operator):
    """``SELECT * FROM table JOIN right_table ON left_on = right_on``."""

    table: str
    right_table: str
    left_on: str
    right_on: str

    def stream_columns(self) -> List[str]:
        return [self.left_on]

    def describe(self) -> str:
        return (
            f"SELECT * FROM {self.table} JOIN {self.right_table} "
            f"ON {self.table}.{self.left_on} = {self.right_table}.{self.right_on}"
        )


@dataclass(frozen=True)
class SkylineOp(Operator):
    """``SELECT * FROM table SKYLINE OF columns`` (maximize all)."""

    table: str
    columns: Sequence[str]

    def __post_init__(self) -> None:
        if len(self.columns) < 2:
            raise PlanError("SKYLINE needs at least two dimensions")

    def stream_columns(self) -> List[str]:
        return list(self.columns)

    def describe(self) -> str:
        return f"SELECT * FROM {self.table} SKYLINE OF {', '.join(self.columns)}"


@dataclass(frozen=True)
class Query:
    """A runnable plan: the primary operator plus an optional pre-filter.

    The optional ``where`` composes a switch filter stage before the
    primary operator (§6's combined query A + B packs exactly this way).
    """

    operator: Operator
    where: Optional[Expr] = None

    def stream_columns(self) -> List[str]:
        """Union of operator and filter columns, operator's first."""
        columns = self.operator.stream_columns()
        if self.where is not None:
            for column in self.where.columns():
                if column not in columns:
                    columns.append(column)
        return columns

    def describe(self) -> str:
        """Readable plan summary."""
        text = self.operator.describe()
        if self.where is not None:
            text += f" [pre-filter {self.where!r}]"
        return text

    def cache_key(self) -> str:
        """A stable canonical identity of this plan.

        Covers the operator (type and every field), the WHERE expression,
        and the streamed columns — everything that determines both the
        compiled switch program and the query's output on a fixed table
        version.  Two SQL texts that differ only in whitespace or keyword
        case parse to equal plans and therefore equal keys, which is what
        makes it safe as the serving layer's result-cache and
        compiled-program-cache key (:mod:`repro.serve.cache`).
        """
        op = self.operator
        parts = [type(op).__name__.lower()]
        parts.extend(
            f"{spec.name}={_canonical(getattr(op, spec.name))}"
            for spec in fields(op)
        )
        where = "None" if self.where is None else repr(self.where)
        stream = ",".join(self.stream_columns())
        return "|".join(parts) + f"|where={where}|stream=[{stream}]"
