"""Mini distributed query engine: the Spark stand-in Cheetah accelerates."""

from .cluster import Cluster, ClusterConfig, PackedRunResult, PhaseVolume, RunResult
from .cost import Breakdown, CostModel, MASTER_ENTRY_US, SPARK_TASK_US
from .expressions import (
    AndExpr,
    Between,
    ColumnRef,
    Compare,
    Expr,
    Like,
    NotExpr,
    OrExpr,
    col,
)
from .explain import explain
from .plan import (
    CountOp,
    DistinctOp,
    FilterOp,
    GroupByOp,
    HavingOp,
    JoinOp,
    Operator,
    Query,
    SkylineOp,
    TopNOp,
)
from .reference import run_reference
from .sql import parse as parse_sql
from .table import Table, table_from_csv

__all__ = [
    "Cluster",
    "ClusterConfig",
    "PackedRunResult",
    "PhaseVolume",
    "RunResult",
    "Breakdown",
    "CostModel",
    "MASTER_ENTRY_US",
    "SPARK_TASK_US",
    "AndExpr",
    "Between",
    "ColumnRef",
    "Compare",
    "Expr",
    "Like",
    "NotExpr",
    "OrExpr",
    "col",
    "explain",
    "CountOp",
    "DistinctOp",
    "FilterOp",
    "GroupByOp",
    "HavingOp",
    "JoinOp",
    "Operator",
    "Query",
    "SkylineOp",
    "TopNOp",
    "run_reference",
    "parse_sql",
    "Table",
    "table_from_csv",
]
