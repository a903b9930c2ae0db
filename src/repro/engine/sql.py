"""A SQL front-end for the query shapes Cheetah accelerates.

The paper specifies queries in SQL (plus the SKYLINE OF and TOP N
extensions of [7] and common engines).  :func:`parse` turns such a string
into the same :class:`~repro.engine.plan.Query` objects the cluster
runner executes, so examples and tests can be written the way the paper
writes them:

    parse("SELECT DISTINCT seller FROM Products")
    parse("SELECT TOP 3 name FROM Ratings ORDER BY taste")
    parse("SELECT * FROM Ratings WHERE taste > 5 OR "
          "(texture > 4 AND name LIKE 'e%s')")
    parse("SELECT seller FROM Products GROUP BY seller HAVING SUM(price) > 5")
    parse("SELECT * FROM Products JOIN Ratings ON Products.name = Ratings.name")
    parse("SELECT name FROM Ratings SKYLINE OF taste, texture")

The WHERE grammar covers comparisons, BETWEEN, LIKE, NOT/AND/OR and
parentheses — everything §4.1's decomposition consumes.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..errors import PlanError
from .expressions import AndExpr, Between, Compare, Expr, Like, NotExpr, OrExpr
from .plan import (
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<string>'[^']*')
  | (?P<op><>|!=|>=|<=|==|=|>|<)
  | (?P<punct>[(),.*])
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "DISTINCT", "COUNT", "TOP", "ORDER", "BY",
    "GROUP", "HAVING", "JOIN", "ON", "SKYLINE", "OF", "AND", "OR", "NOT",
    "LIKE", "BETWEEN", "SUM", "MAX", "MIN", "AVG", "DESC", "ASC",
}


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int = 0) -> None:
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:
        return f"{self.kind}:{self.value}"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            if text[position] == "'":
                raise PlanError(
                    f"unterminated string literal at position {position} "
                    f"in {text!r}"
                )
            raise PlanError(
                f"cannot tokenize SQL at position {position}: "
                f"{text[position:position + 20]!r}"
            )
        start = position
        position = match.end()
        if match.lastgroup == "ws":
            continue
        value = match.group()
        kind = match.lastgroup or "word"
        if kind == "word" and value.upper() in _KEYWORDS:
            kind, value = "kw", value.upper()
        tokens.append(_Token(kind, value, start))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers ---------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept_kw(self, *keywords: str) -> Optional[str]:
        token = self.peek()
        if token.kind == "kw" and token.value in keywords:
            self.advance()
            return token.value
        return None

    def expect_kw(self, keyword: str) -> None:
        if not self.accept_kw(keyword):
            token = self.peek()
            raise PlanError(
                f"expected {keyword} at token {token!r} "
                f"(position {token.pos}) in {self.text!r}"
            )

    def expect_word(self) -> str:
        token = self.peek()
        if token.kind != "word":
            raise PlanError(
                f"expected identifier at token {token!r} "
                f"(position {token.pos}) in {self.text!r}"
            )
        return self.advance().value

    def accept_punct(self, char: str) -> bool:
        token = self.peek()
        if token.kind == "punct" and token.value == char:
            self.advance()
            return True
        return False

    def expect_punct(self, char: str) -> None:
        if not self.accept_punct(char):
            token = self.peek()
            raise PlanError(
                f"expected {char!r} at token {token!r} "
                f"(position {token.pos}) in {self.text!r}"
            )

    def _literal(self) -> object:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return float(token.value) if "." in token.value else int(token.value)
        if token.kind == "string":
            self.advance()
            return token.value[1:-1]
        raise PlanError(
            f"expected literal at token {token!r} "
            f"(position {token.pos}) in {self.text!r}"
        )

    # -- WHERE grammar ----------------------------------------------------

    def parse_predicate(self) -> Expr:
        """``or_expr`` entry point."""
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        children = [left]
        while self.accept_kw("OR"):
            children.append(self._and_expr())
        return children[0] if len(children) == 1 else OrExpr(*children)

    def _and_expr(self) -> Expr:
        children = [self._not_expr()]
        while self.accept_kw("AND"):
            children.append(self._not_expr())
        return children[0] if len(children) == 1 else AndExpr(*children)

    def _not_expr(self) -> Expr:
        if self.accept_kw("NOT"):
            return NotExpr(self._not_expr())
        return self._primary()

    def _primary(self) -> Expr:
        if self.accept_punct("("):
            inner = self._or_expr()
            self.expect_punct(")")
            return inner
        column = self.expect_word()
        if self.accept_kw("LIKE"):
            pattern = self._literal()
            if not isinstance(pattern, str):
                raise PlanError(f"LIKE needs a string pattern in {self.text!r}")
            return Like(column, pattern)
        if self.accept_kw("BETWEEN"):
            lo = self._literal()
            self.expect_kw("AND")
            hi = self._literal()
            return Between(column, lo, hi)
        token = self.peek()
        if token.kind != "op":
            raise PlanError(
                f"expected comparison after {column!r} at {token!r} "
                f"(position {token.pos}) in {self.text!r}"
            )
        op = self.advance().value
        op = {"=": "==", "<>": "!="}.get(op, op)
        return Compare(column, op, self._literal())

    # -- SELECT forms -----------------------------------------------------

    def parse_query(self) -> Query:
        """Parse one SELECT statement into a Query."""
        self.expect_kw("SELECT")
        if self.accept_kw("COUNT"):
            return self._count_query()
        if self.accept_kw("DISTINCT"):
            return self._distinct_query()
        if self.accept_kw("TOP"):
            return self._topn_query()
        return self._general_query()

    def _count_query(self) -> Query:
        self.expect_punct("(")
        self.expect_punct("*")
        self.expect_punct(")")
        self.expect_kw("FROM")
        table = self.expect_word()
        predicate = self._optional_where()
        self._expect_end()
        if predicate is None:
            raise PlanError("COUNT(*) without WHERE has nothing to offload")
        return Query(CountOp(table, predicate))

    def _distinct_query(self) -> Query:
        columns = self._column_list(until=("FROM",))
        self.expect_kw("FROM")
        table = self.expect_word()
        predicate = self._optional_where()
        self._expect_end()
        return Query(DistinctOp(table, tuple(columns)), where=predicate)

    def _topn_query(self) -> Query:
        token = self.peek()
        if token.kind != "number":
            raise PlanError(f"TOP needs a count, got {token!r} in {self.text!r}")
        n = int(self.advance().value)
        self._select_list()
        self.expect_kw("FROM")
        table = self.expect_word()
        predicate = self._optional_where()
        self.expect_kw("ORDER")
        self.expect_kw("BY")
        order_by = self.expect_word()
        descending = True
        if self.accept_kw("ASC"):
            descending = False
        else:
            self.accept_kw("DESC")
        self._expect_end()
        return Query(
            TopNOp(table, order_by, n, descending=descending), where=predicate
        )

    def _general_query(self) -> Query:
        select_items = self._select_list()
        self.expect_kw("FROM")
        table = self.expect_word()

        # JOIN form: SELECT * FROM a JOIN b ON a.x = b.y
        if self.accept_kw("JOIN"):
            right = self.expect_word()
            self.expect_kw("ON")
            left_table, left_col = self._qualified_column()
            token = self.advance()
            if token.kind != "op" or token.value not in ("=", "=="):
                raise PlanError(f"JOIN condition must be equality in {self.text!r}")
            right_table, right_col = self._qualified_column()
            self._expect_end()
            mapping = {left_table: left_col, right_table: right_col}
            if set(mapping) != {table, right}:
                raise PlanError(
                    f"JOIN condition must reference {table} and {right}, "
                    f"got {left_table} and {right_table}"
                )
            return Query(JoinOp(table, right, mapping[table], mapping[right]))

        predicate = self._optional_where()

        # SKYLINE form.
        if self.accept_kw("SKYLINE"):
            self.expect_kw("OF")
            columns = self._column_list(until=())
            self._expect_end()
            return Query(SkylineOp(table, tuple(columns)), where=predicate)

        # GROUP BY forms.
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            key = self.expect_word()
            if self.accept_kw("HAVING"):
                aggregate = self._aggregate_keyword()
                self.expect_punct("(")
                value = self.expect_word()
                self.expect_punct(")")
                token = self.advance()
                if token.kind != "op" or token.value != ">":
                    raise PlanError(
                        "HAVING supports the '> threshold' direction "
                        f"(paper §4.3), got {token!r}"
                    )
                threshold = self._literal()
                self._expect_end()
                return Query(
                    HavingOp(table, key, value, float(threshold), aggregate),
                    where=predicate,
                )
            # Aggregate GROUP BY: the select list carries AGG(value).
            aggregate, value = self._aggregate_from_select(select_items)
            self._expect_end()
            return Query(GroupByOp(table, key, value, aggregate), where=predicate)

        # Plain filter: SELECT * FROM t WHERE pred.
        self._expect_end()
        if predicate is None:
            raise PlanError(f"nothing to offload in {self.text!r}")
        return Query(FilterOp(table, predicate))

    # -- select-list helpers -----------------------------------------------

    def _select_list(self) -> List[Tuple[str, Optional[str]]]:
        """Parse the select list; items are (name, aggregate-or-None)."""
        items: List[Tuple[str, Optional[str]]] = []
        while True:
            if self.accept_punct("*"):
                items.append(("*", None))
            else:
                token = self.peek()
                if token.kind == "kw" and token.value in ("SUM", "MAX", "MIN", "AVG"):
                    aggregate = self.advance().value.lower()
                    self.expect_punct("(")
                    column = self.expect_word()
                    self.expect_punct(")")
                    items.append((column, aggregate))
                else:
                    items.append((self.expect_word(), None))
            if not self.accept_punct(","):
                return items

    def _column_list(self, until: Tuple[str, ...]) -> List[str]:
        columns = [self.expect_word()]
        while self.accept_punct(","):
            columns.append(self.expect_word())
        return columns

    def _qualified_column(self) -> Tuple[str, str]:
        table = self.expect_word()
        self.expect_punct(".")
        return table, self.expect_word()

    def _aggregate_keyword(self) -> str:
        for keyword in ("SUM", "MAX", "MIN"):
            if self.accept_kw(keyword):
                return keyword.lower()
        if self.accept_kw("COUNT"):
            return "count"
        raise PlanError(f"expected aggregate function at {self.peek()!r}")

    def _aggregate_from_select(self, items) -> Tuple[str, str]:
        aggregates = [(col, agg) for col, agg in items if agg is not None]
        if len(aggregates) != 1:
            raise PlanError(
                "GROUP BY needs exactly one aggregate in the select list "
                f"(e.g. MAX(adRevenue)); got {items!r}"
            )
        column, aggregate = aggregates[0]
        if aggregate not in ("max", "min"):
            raise PlanError(
                f"GROUP BY pruning supports MIN/MAX aggregates (§4); "
                f"{aggregate.upper()} needs the HAVING sketch path"
            )
        return aggregate, column

    def _optional_where(self) -> Optional[Expr]:
        if self.accept_kw("WHERE"):
            return self.parse_predicate()
        return None

    def _expect_end(self) -> None:
        token = self.peek()
        if token.kind != "eof":
            raise PlanError(
                f"unexpected trailing tokens at {token!r} "
                f"(position {token.pos}) in {self.text!r}"
            )


def parse(sql: str) -> Query:
    """Parse one SELECT statement into a runnable :class:`Query`."""
    return _Parser(sql).parse_query()

