"""One fleet replica: a :class:`QueryService` bound to a ToR switch.

A replica is the unit of replication, placement, and rolling update.
It owns a full serving stack — admission queue, packing scheduler,
executor pool — configured from the ToR switch it is bound to (the
ToR's :class:`~repro.switch.resources.ResourceModel` becomes the
replica's compile budget, so a program that doesn't fit the rack's
switch never runs there), and shares the fleet-wide
:class:`~repro.serve.cache.ResultCache` with its siblings.

The router reads two things off a replica: its lifecycle
:attr:`Replica.state` (only ``ACTIVE`` replicas receive new requests)
and its :meth:`occupancy` (queued + executing — the load signal).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..engine.cluster import ClusterConfig
from ..errors import ConfigurationError
from ..serve.server import QueryService
from .topology import SwitchSpec

#: Replica lifecycle states.  ``ACTIVE`` receives routed requests;
#: ``DRAINING`` finishes what it holds but gets nothing new (the rolling
#: updater's first step); ``UPDATING`` is mid table-swap.
ACTIVE = "active"
DRAINING = "draining"
UPDATING = "updating"

STATES = (ACTIVE, DRAINING, UPDATING)


class Replica:
    """A named :class:`QueryService` bound to one ToR switch."""

    def __init__(
        self,
        name: str,
        tor: SwitchSpec,
        tables,
        *,
        results=None,
        quota=None,
        fairness=None,
        max_queue: int = 64,
        verify: bool = False,
        seed: int = 0,
        default_timeout: Optional[float] = None,
    ) -> None:
        """Build the replica's service from the ToR's budget.

        ``results``/``quota``/``fairness`` are the fleet-shared result
        cache and the tenancy policies, passed straight through to the
        underlying :class:`QueryService`.
        """
        if not name:
            raise ConfigurationError("replica name must be non-empty")
        self.name = name
        self.tor = tor
        self.state = ACTIVE
        self.service = QueryService(
            tables,
            workers=4,
            config=ClusterConfig(model=tor.model, seed=seed),
            max_queue=max_queue,
            default_timeout=default_timeout,
            verify=verify,
            results=results,
            quota=quota,
            fairness=fairness,
        )
        self.fairness = fairness

    # -- router-facing signals -----------------------------------------------

    @property
    def active(self) -> bool:
        """True when the router may place new requests here."""
        return self.state == ACTIVE

    @property
    def occupancy(self) -> int:
        """Queued plus executing requests (the router's load signal)."""
        return self.service.occupancy

    @property
    def tables_version(self) -> int:
        """The replica's current table version (result-cache epoch)."""
        return self.service.tables_version

    # -- rolling-update steps ------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until nothing is queued or executing here; True on success.

        The caller must have stopped routing to this replica first
        (``state = DRAINING``); this only waits for what it already
        holds.  Admission stays open throughout — a drain for update is
        not a shutdown.
        """
        deadline = time.monotonic() + timeout
        while self.occupancy > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.002)
        return True

    def update_tables(self, tables=None) -> int:
        """Swap this replica's tables (version fence)."""
        return self.service.update_tables(tables)

    def shutdown(self, drain: bool = True) -> None:
        """Shut the replica's service down (graceful by default)."""
        self.service.shutdown(drain=drain)

    def summary(self) -> Dict[str, object]:
        """The replica's corner of the fleet report."""
        report_summary: Dict[str, object] = {
            "name": self.name,
            "tor": self.tor.name,
            "state": self.state,
            "tables_version": self.tables_version,
            "occupancy": self.occupancy,
        }
        if self.fairness is not None:
            report_summary["fairness"] = self.fairness.snapshot()
        return report_summary
