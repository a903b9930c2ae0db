"""The Big Data benchmark tables and queries (paper §8.1, Appendix B).

The paper samples 18M Rankings rows and 31.7M (of 775M) UserVisits rows;
we generate schema- and distribution-faithful tables at laptop scale
(defaults 50K / 100K rows, overridable).  Key distributional properties
the pruning rates depend on are preserved:

* ``Rankings.pageRank`` is *nearly sorted* (the paper permutes it before
  filtering/skyline queries — we expose :func:`permuted`);
* ``UserVisits.userAgent`` is Zipf over a few hundred distinct agents;
* ``UserVisits.languageCode`` is Zipf over a few dozen codes;
* ``UserVisits.adRevenue`` is heavy-tailed;
* ``UserVisits.destURL`` draws from Rankings' URL space so the Q6 join
  has partial key overlap (the paper joins random 10% subsets).

The seven Appendix B queries are exposed as :class:`~repro.engine.plan.Query`
builders, numbered as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..engine.expressions import col
from ..engine.plan import (
    CountOp,
    DistinctOp,
    GroupByOp,
    HavingOp,
    JoinOp,
    Query,
    SkylineOp,
    TopNOp,
)
from ..engine.table import Table


#: Share of UserVisits.destURL drawn from Rankings.pageURL (the JOIN's matches).
JOIN_OVERLAP = 0.10


@dataclass(frozen=True)
class BigDataScale:
    """Row counts and cardinalities for a generated benchmark instance.

    ``string_agents=True`` renders userAgent as realistic strings instead
    of integer ids — exercising the fingerprint path real deployments
    need for variable-width columns (§5, Example 8).
    """

    rankings_rows: int = 50_000
    uservisits_rows: int = 100_000
    distinct_urls: int = 20_000
    distinct_user_agents: int = 500
    distinct_languages: int = 25
    string_agents: bool = False


def rankings(scale: BigDataScale = BigDataScale(), seed: int = 0) -> Table:
    """The Rankings table: pageURL, pageRank (nearly sorted), avgDuration."""
    rng = np.random.default_rng(seed)
    n = scale.rankings_rows
    page_url = rng.choice(scale.distinct_urls, size=n, replace=True)
    # Nearly sorted pageRank: sorted base plus local jitter sized to a few
    # adjacent gaps, so global order is strong but not perfect.
    base = np.sort(rng.integers(0, 10_000, size=n))
    gap = max(1, 10_000 // n)
    jitter = rng.integers(-3 * gap, 3 * gap + 1, size=n)
    page_rank = np.clip(base + jitter, 0, None)
    avg_duration = rng.integers(1, 120, size=n)
    return Table(
        "Rankings",
        {
            "pageURL": page_url,
            "pageRank": page_rank,
            "avgDuration": avg_duration,
        },
    )


def uservisits(scale: BigDataScale = BigDataScale(), seed: int = 0) -> Table:
    """The UserVisits table (queried columns only, plus destURL for joins)."""
    rng = np.random.default_rng(seed + 1)
    n = scale.uservisits_rows
    # Zipf-ish user agents and languages via rank-weighted choice.
    agent_ranks = np.arange(1, scale.distinct_user_agents + 1, dtype=float)
    agent_weights = agent_ranks**-1.2
    agent_weights /= agent_weights.sum()
    user_agent_ids = rng.choice(scale.distinct_user_agents, size=n, p=agent_weights)
    if scale.string_agents:
        catalog = _user_agent_catalog(scale.distinct_user_agents)
        user_agent = np.array([catalog[i] for i in user_agent_ids])
    else:
        user_agent = user_agent_ids
    lang_ranks = np.arange(1, scale.distinct_languages + 1, dtype=float)
    lang_weights = lang_ranks**-1.0
    lang_weights /= lang_weights.sum()
    language_code = rng.choice(scale.distinct_languages, size=n, p=lang_weights)
    ad_revenue = rng.lognormal(mean=2.0, sigma=1.5, size=n)
    # destURL overlaps Rankings.pageURL on ~JOIN_OVERLAP of the URL space.
    overlap_urls = int(scale.distinct_urls * JOIN_OVERLAP)
    dest_url = np.where(
        rng.random(n) < JOIN_OVERLAP,
        rng.integers(0, max(1, overlap_urls), size=n),
        rng.integers(scale.distinct_urls, 2 * scale.distinct_urls, size=n),
    )
    duration = rng.integers(1, 3600, size=n)
    return Table(
        "UserVisits",
        {
            "destURL": dest_url,
            "adRevenue": ad_revenue,
            "userAgent": user_agent,
            "languageCode": language_code,
            "duration": duration,
        },
    )


def tables(scale: BigDataScale = BigDataScale(), seed: int = 0) -> Dict[str, Table]:
    """Both benchmark tables keyed by name."""
    return {
        "Rankings": rankings(scale, seed),
        "UserVisits": uservisits(scale, seed),
    }


def permuted(table: Table, seed: int = 0) -> Table:
    """Random row permutation — the paper's treatment of nearly sorted inputs."""
    return table.shuffled(seed)


# -- Appendix B queries --------------------------------------------------------


def query1_filter_count() -> Query:
    """(1) SELECT COUNT(*) FROM Rankings WHERE avgDuration < 10 — BigData A."""
    return Query(CountOp("Rankings", col("avgDuration") < 10))


def query2_distinct() -> Query:
    """(2) SELECT DISTINCT userAgent FROM UserVisits."""
    return Query(DistinctOp("UserVisits", ("userAgent",)))


def query3_skyline() -> Query:
    """(3) SELECT * FROM Rankings SKYLINE OF pageRank, avgDuration."""
    return Query(SkylineOp("Rankings", ("pageRank", "avgDuration")))


def query4_topn() -> Query:
    """(4) SELECT TOP 250 * FROM UserVisits ORDER BY adRevenue."""
    return Query(TopNOp("UserVisits", "adRevenue", 250))


def query5_groupby() -> Query:
    """(5) SELECT userAgent, MAX(adRevenue) FROM UserVisits GROUP BY userAgent.

    This is the offloaded part of BigData B.
    """
    return Query(GroupByOp("UserVisits", "userAgent", "adRevenue", "max"))


def query6_join() -> Query:
    """(6) SELECT * FROM UserVisits JOIN Rankings ON destURL = pageURL."""
    return Query(JoinOp("UserVisits", "Rankings", "destURL", "pageURL"))


def query7_having(threshold: float = 1_000_000.0) -> Query:
    """(7) SELECT languageCode ... GROUP BY languageCode HAVING SUM(adRevenue) > 1M."""
    return Query(
        HavingOp("UserVisits", "languageCode", "adRevenue", threshold, "sum")
    )


def benchmark_queries() -> Dict[str, Query]:
    """All seven queries keyed by the paper's numbering."""
    return {
        "Q1-filter": query1_filter_count(),
        "Q2-distinct": query2_distinct(),
        "Q3-skyline": query3_skyline(),
        "Q4-topn": query4_topn(),
        "Q5-groupby": query5_groupby(),
        "Q6-join": query6_join(),
        "Q7-having": query7_having(),
    }


_BROWSERS = ("Mozilla/5.0", "Chrome/119.0", "Safari/605.1", "Edge/118.0", "Opera/102.0")
_PLATFORMS = (
    "(Windows NT 10.0; Win64; x64)",
    "(Macintosh; Intel Mac OS X 13_5)",
    "(X11; Linux x86_64)",
    "(iPhone; CPU iPhone OS 16_6 like Mac OS X)",
    "(Android 13; Mobile)",
)


def _user_agent_catalog(count: int) -> list:
    """Deterministic realistic-looking user-agent strings."""
    catalog = []
    for i in range(count):
        browser = _BROWSERS[i % len(_BROWSERS)]
        platform = _PLATFORMS[(i // len(_BROWSERS)) % len(_PLATFORMS)]
        catalog.append(f"{browser} {platform} build/{i:04d}")
    return catalog
