"""The pipeline-slot scheduler: §6 packing as the batching policy.

The paper's query packing (§6) shares one pipeline among queries whose
combined footprint fits the switch.  Offline that is a compile-time
question; in the serving layer it becomes the *batching policy*: when
the scheduler pops the head of the admission queue, it scans the
backlog for compatible companions and co-schedules them into one packed
slot — one streaming pass over the table answers all of them, which is
where the serving throughput win comes from (see
``benchmarks/bench_serving.py``).

Compatibility mirrors :meth:`~repro.engine.cluster.Cluster.run_packed`
exactly: single-pass operators only (filter/COUNT, DISTINCT, TOP N,
GROUP BY), no separate WHERE clause, all scanning the same table, and a
cumulative footprint the §6 packer accepts.  Anything else — JOIN,
HAVING, SKYLINE, WHERE-carrying queries — executes in a solo slot via
``Cluster.run``, so no query is ever turned away for being unpackable.

Footprints come from the :class:`~repro.serve.cache.ProgramCache`
(built once per canonical plan), and the fit check itself hits the
switch compiler's memoized ``pack``, so steady-state slot formation
costs dictionary lookups, not compilations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..engine.plan import HavingOp, JoinOp, Query, SkylineOp
from ..errors import ConfigurationError, ResourceError
from ..switch.compiler import pack
from .admission import Request
from .cache import ProgramCache

#: Operators that require their own pass (multi-pass or FIN-draining);
#: everything else is single-pass and packable.
_MULTI_PASS_OPS = (JoinOp, HavingOp, SkylineOp)


@dataclass
class Slot:
    """One unit of executor work: the requests sharing a streaming pass."""

    requests: List[Request] = field(default_factory=list)

    @property
    def packed(self) -> bool:
        """True when the slot runs as a §6 packed multi-query pass."""
        return len(self.requests) > 1

    @property
    def queries(self) -> List[Query]:
        """The slot's queries, in request-arrival order."""
        return [request.query for request in self.requests]


class PackingScheduler:
    """Chooses which queued requests share a pipeline slot."""

    def __init__(
        self,
        cluster,
        programs: ProgramCache,
        max_pack: int = 4,
        fairness=None,
    ) -> None:
        if max_pack < 1:
            raise ConfigurationError(f"max_pack must be >= 1, got {max_pack}")
        self.cluster = cluster
        self.programs = programs
        self.max_pack = max_pack
        #: Optional weighted-fair head-selection policy: an object whose
        #: ``select(queued)`` returns the index of the request that
        #: should form the next slot (see
        #: :class:`~repro.fleet.tenancy.WeightedFairPolicy`).  ``None``
        #: keeps strict FIFO formation.
        self.fairness = fairness

    def choose_head(self, queued: Sequence[Request]) -> int:
        """Index of the queued request that forms the next slot.

        The admission controller calls this (with its lock held) before
        popping a slot: strict FIFO without a fairness policy, else the
        policy's weighted-fair choice — which is what keeps one flooding
        tenant from starving the others out of slot formation.
        """
        if self.fairness is None or not queued:
            return 0
        return self.fairness.select(queued)

    def packable(self, query: Query) -> bool:
        """True when ``query`` may join a packed slot at all.

        The same preconditions ``Cluster.run_packed`` enforces: a
        single-pass operator and no separate WHERE (packed streams share
        one payload layout, so a per-query WHERE stage has nowhere to
        hang).
        """
        return query.where is None and not isinstance(
            query.operator, _MULTI_PASS_OPS
        )

    def plan_extras(
        self, head: Request, queued: Sequence[Request], tables
    ) -> List[Request]:
        """Companions from the backlog to pack with ``head``'s query.

        Greedy in arrival order (no reordering starvation): each
        candidate must be packable, scan the head's table, still be
        within its deadline, and keep the cumulative footprint inside
        the §6 packing budget.  Returns ``[]`` when ``max_pack`` is 1
        or the head itself is unpackable — the slot runs solo.
        """
        if self.max_pack == 1:
            return []
        if not self.packable(head.query):
            return []
        table = head.query.operator.table
        footprints = [self._footprint(head.query, tables)]
        extras: List[Request] = []
        for candidate in queued:
            if 1 + len(extras) >= self.max_pack:
                break
            if candidate.expired():
                continue  # pop_slot sheds it on a later pass
            query = candidate.query
            if not self.packable(query) or query.operator.table != table:
                continue
            footprint = self._footprint(query, tables)
            if not self._fits(footprints + [footprint]):
                continue
            footprints.append(footprint)
            extras.append(candidate)
        return extras

    def _footprint(self, query: Query, tables):
        """The query's compiled footprint, via the program cache.

        Built from a solo pruner: the packed pass widens the shared
        payload but the switch-resident state (the footprint) is the
        pruner's own, so the solo footprint is the right packing input.
        """
        return self.programs.footprint(
            query,
            lambda: self.cluster._build_pruner(query, tables).footprint(),
        )

    def _fits(self, footprints: List) -> bool:
        """Whether the combined footprints pass the §6 packer."""
        try:
            pack(footprints, self.cluster.config.model)
        except ResourceError:
            return False
        return True
