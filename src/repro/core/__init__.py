"""Cheetah's pruning algorithms — the paper's primary contribution (§4, §5).

Every pruner implements the :class:`~repro.core.base.Pruner` interface:
a per-entry PRUNE/FORWARD decision, a Table 2 hardware footprint, and a
deterministic or probabilistic correctness guarantee.  The matching
``master_*`` helpers implement the master-side completion step so tests
can assert the pruning contract ``Q(A_Q(D)) == Q(D)`` end to end.
"""

from .base import Entry, Guarantee, PassthroughPruner, PruneDecision, Pruner, PruneStats
from .distinct import DistinctPruner, FingerprintDistinctPruner, master_distinct
from .filtering import (
    FALSE,
    TRUE,
    And,
    Atom,
    FilterPruner,
    Formula,
    Not,
    Or,
    TruthTable,
    Var,
)
from .groupby import GroupByPruner, master_groupby
from .having import HavingPruner, master_having, reference_having
from .join import (
    AsymmetricJoinPruner,
    JoinPruner,
    OuterJoinPruner,
    SideKey,
    master_join,
)
from .sizing import (
    TopNConfig,
    distinct_expected_pruning,
    topn_cols,
    topn_expected_pruning_rate,
    topn_expected_unpruned,
    topn_optimal_config,
    topn_optimal_rows,
)
from .summary import TABLE4, AlgorithmRow, render_table4
from .skyline import (
    AphScore,
    DirectionalSkylinePruner,
    SkylinePruner,
    master_directional_skyline,
    master_skyline,
    reflect_point,
    score_product,
    score_sum,
    weakly_dominates,
)
from .topn import TopNDeterministicPruner, TopNRandomizedPruner, master_topn

__all__ = [
    "Entry",
    "Guarantee",
    "PassthroughPruner",
    "PruneDecision",
    "Pruner",
    "PruneStats",
    "DistinctPruner",
    "FingerprintDistinctPruner",
    "master_distinct",
    "FALSE",
    "TRUE",
    "And",
    "Atom",
    "FilterPruner",
    "Formula",
    "Not",
    "Or",
    "TruthTable",
    "Var",
    "GroupByPruner",
    "master_groupby",
    "HavingPruner",
    "master_having",
    "reference_having",
    "AsymmetricJoinPruner",
    "JoinPruner",
    "OuterJoinPruner",
    "SideKey",
    "master_join",
    "TopNConfig",
    "distinct_expected_pruning",
    "topn_cols",
    "topn_expected_pruning_rate",
    "topn_expected_unpruned",
    "topn_optimal_config",
    "topn_optimal_rows",
    "TABLE4",
    "AlgorithmRow",
    "render_table4",
    "AphScore",
    "DirectionalSkylinePruner",
    "SkylinePruner",
    "master_directional_skyline",
    "reflect_point",
    "master_skyline",
    "score_product",
    "score_sum",
    "weakly_dominates",
    "TopNDeterministicPruner",
    "TopNRandomizedPruner",
    "master_topn",
]
