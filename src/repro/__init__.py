"""Cheetah: accelerating database queries with switch pruning.

A from-scratch reproduction of Tirmazi et al., SIGMOD 2020.  The library
is organized by substrate:

* :mod:`repro.core` — the pruning algorithms (the paper's contribution);
* :mod:`repro.switch` — a PISA switch simulator with resource enforcement;
* :mod:`repro.sketches` — cache matrices, Bloom filters, Count-Min;
* :mod:`repro.engine` — a columnar mini query engine (the Spark stand-in)
  with the cluster runner and completion-time cost model;
* :mod:`repro.net` — the Cheetah packet formats and reliability protocol;
* :mod:`repro.workloads` — Big Data / TPC-H-like / synthetic generators;
* :mod:`repro.analysis` — OPT oracles and the paper's theorems;
* :mod:`repro.baselines` — the NetAccel model and the hardware catalog.

Quickstart::

    from repro import Cluster, Query, DistinctOp
    from repro.workloads import bigdata

    tables = bigdata.tables()
    result = Cluster(workers=5).run_verified(
        Query(DistinctOp("UserVisits", ("userAgent",))), tables
    )
    print(result.pruning_rate, len(result.output))
"""

from . import analysis, baselines, core, engine, extensions, faults, net, sketches, switch, workloads
from .core import (
    DistinctPruner,
    FilterPruner,
    FingerprintDistinctPruner,
    GroupByPruner,
    Guarantee,
    HavingPruner,
    JoinPruner,
    PassthroughPruner,
    PruneDecision,
    Pruner,
    SkylinePruner,
    TopNDeterministicPruner,
    TopNRandomizedPruner,
)
from .engine import (
    Cluster,
    ClusterConfig,
    CostModel,
    CountOp,
    DistinctOp,
    FilterOp,
    GroupByOp,
    HavingOp,
    JoinOp,
    Query,
    RunResult,
    SkylineOp,
    Table,
    TopNOp,
    col,
    parse_sql,
    run_reference,
)
from .errors import (
    CheetahError,
    ConfigurationError,
    PlanError,
    ProtocolError,
    ResourceError,
    UnsupportedOperationError,
)

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "core",
    "engine",
    "extensions",
    "faults",
    "net",
    "sketches",
    "switch",
    "workloads",
    "DistinctPruner",
    "FilterPruner",
    "FingerprintDistinctPruner",
    "GroupByPruner",
    "Guarantee",
    "HavingPruner",
    "JoinPruner",
    "PassthroughPruner",
    "PruneDecision",
    "Pruner",
    "SkylinePruner",
    "TopNDeterministicPruner",
    "TopNRandomizedPruner",
    "Cluster",
    "ClusterConfig",
    "CostModel",
    "CountOp",
    "DistinctOp",
    "FilterOp",
    "GroupByOp",
    "HavingOp",
    "JoinOp",
    "Query",
    "RunResult",
    "SkylineOp",
    "Table",
    "TopNOp",
    "col",
    "parse_sql",
    "run_reference",
    "CheetahError",
    "ConfigurationError",
    "PlanError",
    "ProtocolError",
    "ResourceError",
    "UnsupportedOperationError",
    "__version__",
]
