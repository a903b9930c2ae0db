"""Multi-tenant isolation: admission quotas and weighted-fair slots.

Two policies keep one heavy tenant from monopolizing a replica, layered
onto the hooks the serving layer exposes:

* :class:`TenantQuota` plugs into
  :class:`~repro.serve.admission.AdmissionController` — a tenant may
  hold at most its share of the bounded admission queue, so a flooding
  tenant sheds against *its own* quota (typed reason
  ``"tenant-quota"``) long before the queue fills and starts shedding
  everyone with ``"queue-full"``.
* :class:`WeightedFairPolicy` plugs into
  :class:`~repro.serve.scheduler.PackingScheduler` — slot *formation*
  is stride-scheduled across tenants by weight instead of strict FIFO,
  so a quiet tenant's request forms a slot within a bounded number of
  rounds no matter how deep the heavy tenant's backlog is.  §6 packing
  still fills the slot with arrival-order companions (any tenant): the
  fairness decision is who *leads* the slot, the packing decision is
  who rides along for free.

Both policies emit structured events through the PR 7
:class:`~repro.obs.events.EventLog` — ``shed`` with
``reason=tenant-quota`` from admission, and ``tenant-starvation`` from
the fair policy's watchdog (a queued request crossing the starvation
round bound; with the policy active the watchdog should never fire,
which is exactly what makes it a useful alarm).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Sequence

from ..errors import ConfigurationError


class TenantQuota:
    """Per-tenant admission quotas over the bounded queue.

    A tenant's limit is ``limits[tenant]`` when configured, otherwise
    ``max(2, ceil(max_share * max_depth))`` — proportional by
    default, overridable per tenant for known-heavy or premium tenants.
    Stateless over the queue snapshot: the check counts the tenant's
    queued requests under the admission lock, so no separate bookkeeping
    can drift from the queue's truth.
    """

    def __init__(
        self,
        max_share: float = 0.5,
        limits: Optional[Dict[str, int]] = None,
    ) -> None:
        """Configure the default share and any per-tenant overrides."""
        if not 0.0 < max_share <= 1.0:
            raise ConfigurationError(
                f"max_share must be in (0, 1], got {max_share}"
            )
        self.max_share = max_share
        self.limits = dict(limits or {})

    def limit_for(self, tenant: str, max_depth: int) -> int:
        """The most queue entries ``tenant`` may hold at once."""
        if tenant in self.limits:
            return max(1, int(self.limits[tenant]))
        return max(2, math.ceil(self.max_share * max_depth))

    def check(self, request, queue, max_depth: int) -> Optional[str]:
        """The admission hook: a shed message when over quota, else None.

        Called with the admission lock held; ``queue`` is the live
        backlog (requests carry ``.tenant``).
        """
        limit = self.limit_for(request.tenant, max_depth)
        held = sum(1 for queued in queue if queued.tenant == request.tenant)
        if held >= limit:
            return (
                f"tenant {request.tenant!r} already holds {held} of its "
                f"{limit}-request queue quota"
            )
        return None


class WeightedFairPolicy:
    """Stride-scheduled slot formation across tenants.

    Each tenant carries a virtual time that advances by ``1 / weight``
    every time one of its requests leads a slot; selection always picks
    the backlogged tenant with the smallest virtual time (FIFO within a
    tenant).  A tenant with weight 2 therefore leads twice the slots of
    a weight-1 tenant under contention, and a quiet tenant — whose
    virtual time trails the flooding tenant's — is served within
    ``O(active tenants)`` rounds of arriving, never behind the whole
    flood.

    A newly-seen tenant joins at the current virtual clock (the last
    served stride), so idling never banks credit for a later burst.

    The starvation watchdog counts, per queued request, how many
    selection rounds it has been passed over; crossing
    ``starvation_rounds`` emits one ``tenant-starvation`` event (and
    bumps ``fleet_starvation_total{tenant=...}``) per excursion.
    ``max_rounds_waited`` exposes the per-tenant worst case so benches
    can assert zero cross-tenant starvation with numbers, not vibes.
    """

    def __init__(
        self,
        weights: Optional[Dict[str, float]] = None,
        starvation_rounds: int = 64,
        events=None,
        registry=None,
    ) -> None:
        """Configure tenant weights and the starvation watchdog."""
        for tenant, weight in (weights or {}).items():
            if weight <= 0:
                raise ConfigurationError(
                    f"tenant {tenant!r} weight must be positive, got {weight}"
                )
        if starvation_rounds < 1:
            raise ConfigurationError(
                f"starvation_rounds must be >= 1, got {starvation_rounds}"
            )
        self.weights = dict(weights or {})
        self.starvation_rounds = starvation_rounds
        self.events = events
        self.registry = registry
        self._lock = threading.Lock()
        self._virtual: Dict[str, float] = {}
        self._clock = 0.0
        #: Selection rounds each queued request has been passed over,
        #: keyed by request id (rebuilt from the live snapshot each
        #: round, so departed requests never linger).
        self._rounds: Dict[int, int] = {}
        self._flagged: Dict[int, bool] = {}
        self.max_rounds_waited: Dict[str, int] = {}
        self.starvation_events = 0

    def weight_for(self, tenant: str) -> float:
        """The configured (or default) weight of ``tenant``."""
        return self.weights.get(tenant, 1.0)

    def select(self, queued: Sequence) -> int:
        """The scheduler hook: index of the request leading the next slot.

        Called under the admission lock with the live backlog; requests
        carry ``.tenant`` and ``.id``.  Advances the chosen tenant's
        virtual time and runs the starvation watchdog over everyone
        passed over.
        """
        if not queued:
            return 0
        with self._lock:
            chosen_tenant = None
            chosen_vt = None
            for request in queued:
                tenant = request.tenant
                vt = self._virtual.get(tenant)
                if vt is None:
                    # Join at the current clock: no retroactive credit.
                    vt = self._clock
                    self._virtual[tenant] = vt
                if chosen_vt is None or vt < chosen_vt:
                    chosen_tenant, chosen_vt = tenant, vt
            index = next(
                i for i, r in enumerate(queued) if r.tenant == chosen_tenant
            )
            self._clock = chosen_vt
            self._virtual[chosen_tenant] = (
                chosen_vt + 1.0 / self.weight_for(chosen_tenant)
            )
            self._watchdog_locked(queued, index)
            return index

    def _watchdog_locked(self, queued: Sequence, served_index: int) -> None:
        """Advance round counters; alarm on a starved request (lock held)."""
        rounds: Dict[int, int] = {}
        flagged: Dict[int, bool] = {}
        for i, request in enumerate(queued):
            if i == served_index:
                continue
            waited = self._rounds.get(request.id, 0) + 1
            rounds[request.id] = waited
            was_flagged = self._flagged.get(request.id, False)
            flagged[request.id] = was_flagged
            tenant = request.tenant
            if waited > self.max_rounds_waited.get(tenant, 0):
                self.max_rounds_waited[tenant] = waited
            if waited >= self.starvation_rounds and not was_flagged:
                flagged[request.id] = True
                self.starvation_events += 1
                if self.registry is not None:
                    self.registry.counter(
                        "fleet_starvation_total",
                        "Queued requests that crossed the starvation "
                        "round bound, by tenant.",
                        tenant=tenant,
                    ).inc()
                if self.events is not None:
                    self.events.emit(
                        "tenant-starvation",
                        f"request {request.id} (tenant {tenant!r}) passed "
                        f"over for {waited} slot-formation rounds",
                        source="fleet",
                        severity="warning",
                        tenant=tenant,
                        rounds=str(waited),
                        request=str(request.id),
                    )
        self._rounds = rounds
        self._flagged = flagged

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time fairness state for reports and the CLI."""
        with self._lock:
            return {
                "virtual_time": dict(self._virtual),
                "max_rounds_waited": dict(self.max_rounds_waited),
                "starvation_events": self.starvation_events,
            }
