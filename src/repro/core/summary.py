"""Appendix A's algorithm summary (Table 4), generated from the code.

Each row records an algorithm's guarantee class, its parameters and their
meaning, plus a property the paper states in §3 but never tabulates:
whether the algorithm is **reboot-safe** — if the switch fails and
reboots with empty state mid-query (§3's failure story), can the query
simply continue, or must the master restart it?

The analysis: an algorithm is reboot-safe iff its *empty* state forwards
everything (pruning decisions made before the crash were justified by
entries that are already at the master or provably redundant, and the
fresh state can only forward more).  That holds for filtering, DISTINCT,
TOP N and GROUP BY.  It fails for:

* JOIN — empty Bloom filters report no matches and would prune *matching*
  entries;
* HAVING — a key whose sum straddles the crash never crosses the
  threshold in either half;
* SKYLINE — the stored pruning points live only in switch memory and are
  lost before the end-of-stream drain.

``test_reboot_safety.py`` verifies each classification empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .base import Guarantee


@dataclass(frozen=True)
class AlgorithmRow:
    """One row of the Appendix A summary table."""

    name: str
    guarantee: Guarantee
    parameters: str
    meaning: str
    reboot_safe: bool


#: Table 4 plus the reboot-safety column.
TABLE4: List[AlgorithmRow] = [
    AlgorithmRow(
        "FILTERING",
        Guarantee.DETERMINISTIC,
        "(predicates)",
        "one ALU per basic predicate; truth-table bit vector",
        reboot_safe=True,
    ),
    AlgorithmRow(
        "DISTINCT",
        Guarantee.DETERMINISTIC,
        "(w, d)",
        "a d x w matrix used as a w-way cache",
        reboot_safe=True,
    ),
    AlgorithmRow(
        "DISTINCT-FP",
        Guarantee.PROBABILISTIC,
        "(w, d, f)",
        "the cache matrix over f-bit fingerprints (Thm 4)",
        reboot_safe=True,
    ),
    AlgorithmRow(
        "SKYLINE",
        Guarantee.DETERMINISTIC,
        "(w)",
        "number of pruning points stored on the switch",
        reboot_safe=False,
    ),
    AlgorithmRow(
        "TOP N (det)",
        Guarantee.DETERMINISTIC,
        "(w)",
        "number of threshold counters stored on the switch",
        reboot_safe=True,
    ),
    AlgorithmRow(
        "TOP N (rand)",
        Guarantee.PROBABILISTIC,
        "(w, d)",
        "a d x w matrix where each row uses a rolling minimum",
        reboot_safe=True,
    ),
    AlgorithmRow(
        "GROUP BY",
        Guarantee.DETERMINISTIC,
        "(w, d)",
        "d x w matrix with one hash per row",
        reboot_safe=True,
    ),
    AlgorithmRow(
        "JOIN",
        Guarantee.DETERMINISTIC,
        "(M, H)",
        "M filter bits, H hash functions",
        reboot_safe=False,
    ),
    AlgorithmRow(
        "HAVING",
        Guarantee.DETERMINISTIC,
        "(w, d)",
        "Count-Min sketch with d rows and w columns",
        reboot_safe=False,
    ),
]


def render_table4() -> List[str]:
    """The summary table as aligned text lines."""
    headers = ("algorithm", "guarantee", "parameters", "reboot-safe", "meaning")
    rows = [
        (
            row.name,
            row.guarantee.value,
            row.parameters,
            "yes" if row.reboot_safe else "restart",
            row.meaning,
        )
        for row in TABLE4
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))
    ]

    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    return lines


#: Cluster operator-kind tag -> Table 4 row-name prefix.
_OP_KIND_ROWS = {
    "filter": "FILTERING",
    "distinct": "DISTINCT",
    "topn": "TOP N",
    "groupby": "GROUP BY",
    "join": "JOIN",
    "having": "HAVING",
    "skyline": "SKYLINE",
}


def is_reboot_safe(op_kind: str) -> bool:
    """Table 4's reboot-safety verdict for a cluster operator kind.

    ``op_kind`` is the short tag the cluster runner uses (``"filter"``,
    ``"distinct"``, ``"topn"``, ``"groupby"``, ``"join"``, ``"having"``,
    ``"skyline"``).  A kind covering several Table 4 rows (TOP N,
    DISTINCT) is safe only if *every* variant is — the degradation policy
    must not depend on which variant happens to be configured.
    """
    try:
        prefix = _OP_KIND_ROWS[op_kind]
    except KeyError:
        raise KeyError(f"unknown operator kind {op_kind!r}") from None
    rows = [row for row in TABLE4 if row.name.startswith(prefix)]
    return all(row.reboot_safe for row in rows)
