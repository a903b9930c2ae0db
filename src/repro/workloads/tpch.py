"""A TPC-H-shaped workload for Query 3 (paper §8.1-8.2).

TPC-H Q3 joins CUSTOMER ⋈ ORDERS ⋈ LINEITEM with a market-segment filter,
date filters, a group-by on the order key and a TOP N on revenue.  The
paper offloads the join (67% of the query's time) to the switch.

We generate the three tables at a reduced scale with TPC-H-like
cardinality ratios (orders = 10 x customers, lineitem ~ 4 x orders) and
expose the pieces Cheetah accelerates:

* :func:`q3_join_query` — the ORDERS ⋈ LINEITEM key join;
* :func:`q3_filtered_tables` — the date filter whose cutoff varies the
  join result size, driving the Fig. 7 NetAccel drain comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..engine.plan import JoinOp, Query
from ..engine.table import Table

#: TPC-H date encoding: days since 1992-01-01; Q3 uses 1995-03-15.
Q3_DATE = 1169
SEGMENTS = 5  # BUILDING, AUTOMOBILE, MACHINERY, HOUSEHOLD, FURNITURE


@dataclass(frozen=True)
class TpchScale:
    """Row counts for a generated TPC-H-like instance: 10 orders per
    customer, 4 lineitems per order."""

    customers: int = 3_000

    @property
    def orders(self) -> int:
        """Orders row count."""
        return self.customers * 10

    @property
    def lineitems(self) -> int:
        """Lineitem row count."""
        return self.orders * 4


def customer(scale: TpchScale = TpchScale(), seed: int = 0) -> Table:
    """CUSTOMER: c_custkey, c_mktsegment."""
    rng = np.random.default_rng(seed)
    return Table(
        "customer",
        {
            "c_custkey": np.arange(scale.customers),
            "c_mktsegment": rng.integers(0, SEGMENTS, size=scale.customers),
        },
    )


def orders(scale: TpchScale = TpchScale(), seed: int = 0) -> Table:
    """ORDERS: o_orderkey, o_custkey, o_orderdate."""
    rng = np.random.default_rng(seed + 1)
    n = scale.orders
    return Table(
        "orders",
        {
            "o_orderkey": np.arange(n),
            "o_custkey": rng.integers(0, scale.customers, size=n),
            "o_orderdate": rng.integers(0, 2400, size=n),
        },
    )


def lineitem(scale: TpchScale = TpchScale(), seed: int = 0) -> Table:
    """LINEITEM: l_orderkey, l_shipdate, l_extendedprice, l_discount."""
    rng = np.random.default_rng(seed + 2)
    n = scale.lineitems
    return Table(
        "lineitem",
        {
            "l_orderkey": rng.integers(0, scale.orders, size=n),
            "l_shipdate": rng.integers(0, 2400, size=n),
            "l_extendedprice": rng.uniform(900.0, 105_000.0, size=n),
            "l_discount": rng.uniform(0.0, 0.1, size=n),
        },
    )


def tables(scale: TpchScale = TpchScale(), seed: int = 0) -> Dict[str, Table]:
    """All three tables keyed by name."""
    return {
        "customer": customer(scale, seed),
        "orders": orders(scale, seed),
        "lineitem": lineitem(scale, seed),
    }


def q3_filtered_tables(
    base: Dict[str, Table], date: int = Q3_DATE, segment: int = 0
) -> Dict[str, Table]:
    """Apply Q3's filters worker-side, leaving the join for the switch.

    Q3 keeps orders placed before ``date`` from customers in ``segment``
    and lineitems shipped after ``date``; the paper's Cheetah offload
    accelerates the subsequent key join.
    """
    cust = base["customer"]
    segment_keys = set(
        cust.column("c_custkey")[cust.column("c_mktsegment") == segment].tolist()
    )
    ords = base["orders"]
    keep_orders = (ords.column("o_orderdate") < date) & np.array(
        [key in segment_keys for key in ords.column("o_custkey").tolist()]
    )
    items = base["lineitem"]
    keep_items = items.column("l_shipdate") > date
    return {
        "customer": cust,
        "orders": ords.mask(keep_orders),
        "lineitem": items.mask(keep_items),
    }


def q3_join_query() -> Query:
    """The switch-offloaded piece: ORDERS ⋈ LINEITEM on the order key."""
    return Query(JoinOp("orders", "lineitem", "o_orderkey", "l_orderkey"))


def q3_revenue_topn(
    joined_keys: Dict[int, int], items: Table, n: int = 10
) -> List[Tuple[int, float]]:
    """The master's Q3 tail: revenue per order key, top-N by revenue.

    ``joined_keys`` maps order keys to their join multiplicities (the
    cluster runner's join output); revenue sums
    ``l_extendedprice * (1 - l_discount)`` over the surviving lineitems.
    """
    keys = items.column("l_orderkey")
    price = items.column("l_extendedprice")
    discount = items.column("l_discount")
    revenue: Dict[int, float] = {}
    for key, p, d in zip(keys.tolist(), price.tolist(), discount.tolist()):
        if key in joined_keys:
            revenue[key] = revenue.get(key, 0.0) + p * (1.0 - d)
    ranked = sorted(revenue.items(), key=lambda item: -item[1])
    return ranked[:n]
