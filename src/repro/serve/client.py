"""The thin in-process client over :class:`~repro.serve.server.QueryService`.

A convenience wrapper binding a tenant name and a default deadline
budget, so call sites (tests, the ``repro serve`` CLI workload threads,
the serving benchmark) read like client code instead of service
plumbing::

    client = ServeClient(service, tenant="analytics", timeout=2.0)
    count = client.query("SELECT COUNT(*) FROM Products WHERE price > 4")

Every call maps 1:1 onto the service API: :meth:`ServeClient.submit`
returns the request ticket, :meth:`ServeClient.query` blocks for the
exact output, and any shed surfaces as the same typed
:class:`~repro.errors.Overloaded` error the service raised.

``retries`` adds bounded retry-with-backoff on *shed* responses
(:class:`~repro.errors.Overloaded`) in :meth:`query`: a shed request
is re-submitted up to ``retries`` times with jittered exponential
backoff (the jitter comes from a seeded RNG, so benchmark runs are
reproducible), and every re-submission is counted on the service
registry as ``client_retries_total{tenant=...}``.
Without retries, fleet benches would silently drop shed queries and
overstate goodput; with them, every query either completes exactly or
fails with the typed error after a known number of attempts.

The ``service`` handle may equally be a
:class:`~repro.fleet.controller.FleetController` — anything exposing
``submit(query, tenant=..., timeout=...)`` and a ``registry``.
"""

from __future__ import annotations

import random
import time
from typing import Optional, Union

from ..engine.plan import Query
from ..errors import Overloaded
from .admission import Request


class ServeClient:
    """One tenant's handle on a running :class:`QueryService` (or fleet)."""

    def __init__(
        self,
        service,
        tenant: str = "default",
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.002,
        seed: Optional[int] = None,
    ) -> None:
        """Bind ``tenant``/``timeout`` defaults and the retry budget.

        ``retries`` is the number of *re-submissions* allowed after a
        shed (0 disables retrying entirely — the historical behaviour);
        ``backoff`` the base sleep before attempt ``k`` (scaled by
        ``2**k`` and jittered in ``[0.5, 1.5)`` by an RNG seeded with
        ``seed``, so two runs with the same seed sleep identically).
        """
        self.service = service
        self.tenant = tenant
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self._rng = random.Random(seed)
        self._retry_counter = None
        if self.retries and getattr(service, "registry", None) is not None:
            self._retry_counter = service.registry.counter(
                "client_retries_total",
                "Client re-submissions after a typed Overloaded shed.",
                tenant=tenant,
            )

    def submit(
        self, query: Union[str, Query], timeout: Optional[float] = None
    ) -> Request:
        """Submit under this client's tenant; returns the ticket."""
        return self.service.submit(
            query,
            tenant=self.tenant,
            timeout=timeout if timeout is not None else self.timeout,
        )

    def _sleep_before(self, attempt: int) -> None:
        """Jittered exponential backoff before re-submission ``attempt``."""
        delay = self.backoff * (2 ** attempt) * (0.5 + self._rng.random())
        if delay > 0:
            time.sleep(delay)

    def _collect(
        self, query: Union[str, Query], ticket: Optional[Request], timeout
    ) -> object:
        """Resolve one query's output, retrying typed sheds up to budget.

        ``ticket`` is the already-submitted first attempt (None when the
        submission itself shed synchronously); each retry re-submits the
        original query — re-parsing is safe because parsing is pure.
        """
        attempts = 0
        while True:
            try:
                if ticket is None:
                    ticket = self.submit(query, timeout=timeout)
                return ticket.result()
            except Overloaded:
                if attempts >= self.retries:
                    raise
                if self._retry_counter is not None:
                    self._retry_counter.inc()
                self._sleep_before(attempts)
                attempts += 1
                ticket = None

    def query(
        self, query: Union[str, Query], timeout: Optional[float] = None
    ) -> object:
        """Submit and block for the exact output (or the typed error).

        Sheds are retried within this client's ``retries`` budget before
        the :class:`~repro.errors.Overloaded` error propagates.
        """
        try:
            ticket = self.submit(query, timeout=timeout)
        except Overloaded:
            if not self.retries:
                raise
            ticket = None
        return self._collect(query, ticket, timeout)
