"""Columnar tables with partitioning — the engine's storage substrate.

A :class:`Table` stores named numpy columns (numeric or object dtype for
strings), mirroring the columnar, memory-optimized layout the paper
credits Spark SQL with.  Workers receive :meth:`Table.partition` slices;
late materialization streams only the queried columns (:meth:`project`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import PlanError


def split_bounds(total: int, parts: int) -> np.ndarray:
    """``parts + 1`` ascending ints cutting ``total`` items into contiguous
    runs; remainder items land in the *later* runs.  The one split every
    worker layout and per-worker account derives from."""
    return np.linspace(0, total, parts + 1, dtype=int)


class Table:
    """An immutable named collection of equal-length columns."""

    def __init__(self, name: str, columns: Dict[str, np.ndarray]) -> None:
        if not columns:
            raise PlanError(f"table {name!r} needs at least one column")
        lengths = {len(array) for array in columns.values()}
        if len(lengths) != 1:
            raise PlanError(
                f"table {name!r} has ragged columns: lengths {sorted(lengths)}"
            )
        self.name = name
        self._columns = {key: np.asarray(value) for key, value in columns.items()}
        self.num_rows = lengths.pop()

    @classmethod
    def from_rows(
        cls, name: str, column_names: Sequence[str], rows: Sequence[Sequence]
    ) -> "Table":
        """Build a table from row tuples (used by tests and examples)."""
        columns: Dict[str, list] = {col: [] for col in column_names}
        for row in rows:
            if len(row) != len(column_names):
                raise PlanError(
                    f"row has {len(row)} fields, expected {len(column_names)}"
                )
            for col, value in zip(column_names, row):
                columns[col].append(value)
        return cls(name, {col: np.array(vals) for col, vals in columns.items()})

    @property
    def column_names(self) -> List[str]:
        """Column names in insertion order."""
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        """One column by name."""
        try:
            return self._columns[name]
        except KeyError:
            raise PlanError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {self.column_names}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def mask(self, keep: np.ndarray) -> "Table":
        """Row subset by boolean mask."""
        if len(keep) != self.num_rows:
            raise PlanError(
                f"mask length {len(keep)} != table rows {self.num_rows}"
            )
        return Table(self.name, {k: v[keep] for k, v in self._columns.items()})

    def take(self, indexes: np.ndarray) -> "Table":
        """Row subset by index array (used for fetch-by-row-id)."""
        return Table(self.name, {k: v[indexes] for k, v in self._columns.items()})

    def shuffled(self, seed: int = 0) -> "Table":
        """Random row permutation (the paper permutes nearly sorted inputs)."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.num_rows)
        return self.take(order)

    def partition_bounds(self, parts: int) -> np.ndarray:
        """Row boundaries of :meth:`partition`: ``parts + 1`` ascending ints.

        Partition ``i`` covers rows ``bounds[i]:bounds[i + 1]``.  Exposed
        so anything that needs to agree with the worker layout — per-worker
        accounting, the parallel shard planner — derives it from the same
        arithmetic instead of re-implementing the split.
        """
        if parts <= 0:
            raise PlanError(f"need at least one partition, got {parts}")
        return split_bounds(self.num_rows, parts)

    def partition(self, parts: int) -> List["Table"]:
        """Split into ``parts`` contiguous partitions, one per worker.

        Each partition's columns are zero-copy numpy views (basic slices)
        over this table's arrays — partitioning a 1M-row table allocates
        no column data, and ``np.shares_memory`` holds between a non-empty
        partition column and its parent.
        """
        bounds = self.partition_bounds(parts)
        return [
            Table(
                f"{self.name}[{i}]",
                {k: v[bounds[i] : bounds[i + 1]] for k, v in self._columns.items()},
            )
            for i in range(parts)
        ]

    def iter_rows(self, names: Sequence[str]) -> Iterator[Tuple]:
        """Stream rows of the projected columns as tuples.

        This is the CWorker's view: one entry per packet, only the columns
        the query conditions on.
        """
        arrays = [self.column(name) for name in names]
        for i in range(self.num_rows):
            yield tuple(array[i] for array in arrays)

    def rows(self, names: Sequence[str]) -> List[Tuple]:
        """Materialized :meth:`iter_rows`."""
        return list(self.iter_rows(names))

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.num_rows}, cols={self.column_names})"


def table_from_csv(path: str, name: str = "table") -> "Table":
    """Load a table from CSV, inferring int/float/str column types.

    A column is int if every value parses as int, else float if every
    value parses as float, else kept as strings.  This is the entry point
    for running Cheetah queries over user-supplied data files.
    """
    import csv

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise PlanError(f"CSV file {path!r} is empty") from None
        rows = [row for row in reader if row]
    if not header:
        raise PlanError(f"CSV file {path!r} has no columns")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise PlanError(
                f"CSV row {i + 2} has {len(row)} fields, expected {len(header)}"
            )
    columns = {}
    for index, column in enumerate(header):
        raw = [row[index] for row in rows]
        columns[column] = np.array(_infer_column(raw))
    if not rows:
        columns = {column: np.array([]) for column in header}
    return Table(name, columns)


def _infer_column(raw):
    """Best-effort typed conversion: int, then float, then str."""
    try:
        return [int(value) for value in raw]
    except ValueError:
        pass
    try:
        return [float(value) for value in raw]
    except ValueError:
        return raw
