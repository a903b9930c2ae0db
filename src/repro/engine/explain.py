"""EXPLAIN for Cheetah plans: what runs where, and what it costs.

:func:`explain` reports, for a query, the §3 split the system will use:
which columns the CWorkers stream, which pruning algorithm the switch
runs (with its Table 2 footprint against the target hardware), what the
master completes, and — for filters — the §4.1 decomposition: the
relaxed formula the switch evaluates versus the residual the master
re-checks.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.filtering import FilterPruner
from ..switch.resources import ResourceModel, TOFINO
from .cluster import Cluster, ClusterConfig
from .plan import CountOp, FilterOp, HavingOp, JoinOp, Query

_MASTER_STEPS = {
    "filter": "re-check the full WHERE on survivors (late materialization fetch follows)",
    "distinct": "drop remaining duplicates with an exact hash set",
    "topn": "exact top-N over survivors with an N-sized heap",
    "groupby": "recompute the MIN/MAX aggregate per surviving key",
    "having": "partial second pass: exact totals for candidate keys only",
    "join": "exact hash join over the surviving keys of both sides",
    "skyline": "exact skyline over forwarded + drained points",
}


def explain(
    query: Query,
    config: Optional[ClusterConfig] = None,
    model: Optional[ResourceModel] = None,
) -> str:
    """Render a human-readable plan for ``query``.

    Does not touch data: the pruner is instantiated only to compute its
    configuration and hardware footprint.
    """
    config = config or ClusterConfig()
    model = model or config.model or TOFINO
    cluster = Cluster(workers=1, config=config)
    op = query.operator
    lines: List[str] = [f"query   : {query.describe()}"]
    lines.append(f"stream  : columns {query.stream_columns()} (metadata pass)")

    if isinstance(op, JoinOp):
        lines.append(
            "passes  : (1) key columns of both tables build the Bloom "
            "filters; (2) pruning pass"
        )
    elif isinstance(op, HavingOp):
        lines.append(
            "passes  : (1) Count-Min sketch pass; (2) partial refetch of "
            "candidate keys"
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
        f"fits    : {'yes' if footprint.fits(model) else 'NO'} "
        f"(target: {model.stages} stages x {model.alus_per_stage} ALUs)"
    )
    from .cluster import _op_kind

    lines.append(f"master  : {_MASTER_STEPS[_op_kind(op)]}")
    if query.where is not None and not isinstance(op, (CountOp, FilterOp)):
        lines.append(
            f"prefilt : WHERE {query.where!r} packed before the operator (§6)"
        )
    return "\n".join(lines)
