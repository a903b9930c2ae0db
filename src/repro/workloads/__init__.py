"""Workload generators: Big Data benchmark, TPC-H-like, and synthetic streams."""

from . import bigdata, synthetic, tpch
from .bigdata import BigDataScale, benchmark_queries
from .synthetic import (
    keyed_values,
    overlapping_key_sets,
    prefixes,
    random_order_stream,
    revenue_stream,
    uniform_points,
    zipf_keys,
)
from .tpch import TpchScale

__all__ = [
    "bigdata",
    "synthetic",
    "tpch",
    "BigDataScale",
    "benchmark_queries",
    "keyed_values",
    "overlapping_key_sets",
    "prefixes",
    "random_order_stream",
    "revenue_stream",
    "uniform_points",
    "zipf_keys",
    "TpchScale",
]
