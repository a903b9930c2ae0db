"""Process-parallel execution of the Cheetah dataplane: transport only.

Cheetah's deployment is parallel by construction — many workers stream
through the switch at once.  The run driver
(:meth:`repro.engine.cluster.Cluster._execute`) cuts every run into
shards and the operator table (:mod:`repro.engine.operators`) says what
a shard does; this package is what crossing a process boundary needs:
zero-copy shared-memory column blocks exported per run
(:mod:`repro.parallel.shm`), hash-shard planning with the multiswitch
partitioning semantics (:mod:`repro.parallel.shard`), the process pool
with its crash and timeout guardrails (:mod:`repro.parallel.runner`) and
the shard task (:mod:`repro.parallel.worker`), which returns survivor
row-id arrays plus a metrics snapshot the parent merges
(:meth:`repro.obs.MetricsRegistry.absorb_sharded`).

The entry point is :func:`repro.parallel.runner.run_parallel`;
:class:`repro.engine.cluster.Cluster` dispatches to it whenever
``ClusterConfig.parallelism > 1`` and no fault plan is active.
"""

from .shard import CONTIGUOUS, HASHED, derive_shard_seed, resolve_policy
from .shm import SharedColumnStore, attach_columns

__all__ = [
    "CONTIGUOUS",
    "HASHED",
    "SharedColumnStore",
    "attach_columns",
    "derive_shard_seed",
    "resolve_policy",
]
