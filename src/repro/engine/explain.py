"""EXPLAIN for Cheetah plans: what runs where, and what it costs.

:func:`explain` reports, for a query, the §3 split the system will use:
which columns the CWorkers stream, which pruning algorithm the switch
runs (with its Table 2 footprint against the target hardware), what the
master completes, and — for filters — the §4.1 decomposition: the
relaxed formula the switch evaluates versus the residual the master
re-checks.
"""

from __future__ import annotations

from typing import List

from ..core.filtering import FilterPruner
from ..switch.resources import TOFINO
from .cluster import Cluster, ClusterConfig
from .operators import plan_for
from .plan import Query


def explain(query: Query) -> str:
    """Render a human-readable plan for ``query`` under the default
    :class:`ClusterConfig` on a Tofino.

    Does not touch data: the pruner is instantiated only to compute its
    configuration and hardware footprint.
    """
    cluster = Cluster(workers=1, config=ClusterConfig())
    lines: List[str] = [f"query   : {query.describe()}"]
    lines.append(f"stream  : columns {query.stream_columns()} (metadata pass)")
    kind, plan = plan_for(query.operator)
    lines.append(
        "passes  : "
        + "; ".join(f"({i}) {what}" for i, (_, what) in enumerate(plan.phases, 1))
    )
    pruner = cluster._build_pruner(query, tables={})
    lines.append(
        f"switch  : {type(pruner).__name__} ({pruner.guarantee.value} guarantee)"
    )
    if isinstance(pruner, FilterPruner):
        lines.append(f"          relaxed formula: {pruner.relaxed!r}")
        dropped = [
            atom.name for atom in pruner.formula.atoms() if not atom.supported
        ]
        if dropped:
            lines.append(
                f"          deferred to master (switch-unsupported): {dropped}"
            )
        lines.append(
            f"          truth table: {pruner._truth_table.rule_count()} "
            "match-action rules"
        )
    footprint = pruner.footprint()
    lines.append(
        f"cost    : {footprint.stages} stages, {footprint.alus} ALUs, "
        f"{footprint.sram_bits / 8 / 1024:.1f} KB SRAM, "
        f"{footprint.tcam_entries} TCAM entries"
    )
    lines.append(
        f"fits    : {'yes' if footprint.fits(TOFINO) else 'NO'} "
        f"(target: {TOFINO.stages} stages x {TOFINO.alus_per_stage} ALUs)"
    )
    lines.append(f"master  : {plan.completion[kind]}")
    if query.where is not None and kind != "filter":
        lines.append(
            f"prefilt : WHERE {query.where!r} packed before the operator (§6)"
        )
    return "\n".join(lines)
