"""Traced peak memory of one query per operator at ``scan_large`` sizes.

The tables have 200,000 UserVisits and 10,000 Rankings rows and stream in
65,536-row batches, as the ledger's ``scan_large`` workload runs them.
``tracemalloc`` sees numpy's buffers, so a bound here is the high-water
mark of one run's temporaries above what was live when it started: the
per-query transient memory that ``peak_rss_mb`` pays for.  JOIN's bound
includes its two 2 MiB Bloom filters.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import Cluster, ClusterConfig
from repro.engine import parse_sql
from repro.workloads import bigdata

#: MiB per operator.  HAVING and JOIN were 9.3 and 7.8 before their kernels
#: stopped materialising full-length copies; the rest are their readings
#: then, rounded up to 0.05 MiB.
BOUNDS = {
    "filter": 3.40,
    "distinct": 1.95,
    "skyline": 1.90,
    "topn": 3.15,
    "groupby": 3.75,
    "join": 6.5,
    "having": 5.0,
}


@pytest.fixture(scope="module")
def tables():
    return bigdata.tables(
        bigdata.BigDataScale(rankings_rows=10_000, uservisits_rows=200_000), 7
    )


def _sql(op: str, tables) -> str:
    visits = tables["UserVisits"]
    sums = np.bincount(
        visits.column("languageCode"), weights=visits.column("adRevenue")
    )
    return {
        "filter": "SELECT COUNT(*) FROM UserVisits WHERE "
        "(duration > 30 AND adRevenue > 100) OR languageCode < 3",
        "distinct": "SELECT DISTINCT userAgent FROM UserVisits",
        "skyline": "SELECT * FROM Rankings SKYLINE OF pageRank, avgDuration",
        "topn": "SELECT TOP 250 adRevenue FROM UserVisits ORDER BY adRevenue",
        "groupby": "SELECT userAgent, MAX(adRevenue) FROM UserVisits "
        "GROUP BY userAgent",
        "join": "SELECT * FROM UserVisits JOIN Rankings "
        "ON UserVisits.destURL = Rankings.pageURL",
        "having": "SELECT languageCode FROM UserVisits GROUP BY languageCode "
        f"HAVING SUM(adRevenue) > {float(np.median(sums[sums > 0]))!r}",
    }[op]


@pytest.mark.parametrize("op", sorted(BOUNDS))
def test_traced_peak_per_operator(op, tables):
    cluster = Cluster(5, ClusterConfig(batch_size=65536))
    query = parse_sql(_sql(op, tables))
    cluster.run(query, tables)  # warm caches and lazy set-up first
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        cluster.run(query, tables)
        peak = (tracemalloc.get_traced_memory()[1] - live) / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= BOUNDS[op], f"{op}: traced peak {peak:.2f} MiB"
