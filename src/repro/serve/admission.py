"""Bounded admission: the serving layer's front door.

The queue between :meth:`~repro.serve.server.QueryService.submit` and
the pipeline-slot scheduler is *bounded* and *deadline-aware*.  A
request that cannot be served in time is rejected up front with a typed
:class:`~repro.errors.Overloaded` error — never silently dropped, never
allowed to sit in the queue past its deadline and then return a stale
or partial answer.  Shedding at admission keeps the invariant the rest
of the reproduction lives by: every answer a client receives is exact.

Four shed reasons exist, each a stable machine-readable tag on the
raised error and a label on the ``serve_shed_total`` counter:

* ``"queue-full"`` — the queue already holds ``max_depth`` requests;
* ``"deadline"`` — the deadline already passed, or the backlog's
  estimated service time (an EWMA of recent per-query seconds, scaled
  by executor concurrency) would blow it;
* ``"tenant-quota"`` — an optional per-tenant quota policy (see
  :class:`~repro.fleet.tenancy.TenantQuota`) rejected the request
  because its tenant already holds its share of the queue;
* ``"shutting-down"`` — the service is draining and accepts no new work.

Head selection is pluggable too: :meth:`AdmissionController.pop_slot`
accepts a ``choose_head`` callback (the scheduler's weighted-fair
policy in fleet deployments) that picks which queued request forms the
next slot; the default is strict FIFO.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..errors import ConfigurationError, Overloaded
from ..obs import MetricsRegistry, null_registry

#: EWMA smoothing for the per-query service-time estimate: new
#: observations get this weight, history keeps the rest.
_EWMA_ALPHA = 0.2

_request_ids = itertools.count(1)


class Request:
    """One submitted query: admission ticket, phase timeline, and future.

    The submitting thread holds the ticket and blocks in :meth:`result`;
    the scheduler and executor threads drive it through the lifecycle
    (``submitted → queued → scheduled → executed → completed``, each
    stamped into :attr:`timeline` with the monotonic clock) and finally
    :meth:`complete` or :meth:`fail` it, releasing every waiter.
    """

    __slots__ = (
        "id",
        "query",
        "sql",
        "tenant",
        "deadline",
        "timeline",
        "trace",
        "exec_ctx",
        "_event",
        "_output",
        "_error",
    )

    def __init__(
        self,
        query,
        tenant: str = "default",
        deadline: Optional[float] = None,
        sql: Optional[str] = None,
    ) -> None:
        self.id = next(_request_ids)
        self.query = query
        self.sql = sql
        self.tenant = tenant
        #: Absolute ``time.monotonic()`` instant after which the answer
        #: is worthless; None means the client will wait forever.
        self.deadline = deadline
        self.timeline: Dict[str, float] = {"submitted": time.monotonic()}
        #: Root :class:`~repro.obs.TraceContext` of this request's trace
        #: tree (set at submit when the service traces requests), and the
        #: derived execution-phase context the engine runs under.
        self.trace = None
        self.exec_ctx = None
        self._event = threading.Event()
        self._output: object = None
        self._error: Optional[BaseException] = None

    def expired(self, now: Optional[float] = None) -> bool:
        """True once the deadline has passed (never, without one)."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def done(self) -> bool:
        """True once the request completed or failed."""
        return self._event.is_set()

    @property
    def error(self) -> Optional[BaseException]:
        """The stored failure, if the request failed (else None)."""
        return self._error

    def complete(self, output: object) -> None:
        """Deliver the query output and release every waiter."""
        self._output = output
        self.timeline.setdefault("completed", time.monotonic())
        self._event.set()

    def fail(self, error: BaseException) -> None:
        """Store a failure; :meth:`result` re-raises it to the waiter."""
        self._error = error
        self.timeline.setdefault("completed", time.monotonic())
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> object:
        """Block until the request finishes; return output or re-raise.

        ``timeout`` bounds only this wait (the request keeps running);
        a blown wait raises the builtin :class:`TimeoutError`.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.id} ({self.query.describe()}) still "
                f"pending after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._output


class AdmissionController:
    """The bounded, deadline-aware request queue with load shedding.

    All queue state is guarded by :attr:`condition`; the scheduler
    thread waits on it and pops whole pipeline slots via
    :meth:`pop_slot`, so slot formation (scanning the backlog for
    §6-packable companions) happens atomically with the dequeue.
    """

    def __init__(
        self,
        max_depth: int,
        registry: Optional[MetricsRegistry] = None,
        concurrency: int = 1,
        events=None,
        quota=None,
    ) -> None:
        if max_depth <= 0:
            raise ConfigurationError(
                f"admission queue depth must be positive, got {max_depth}"
            )
        if concurrency <= 0:
            raise ConfigurationError(
                f"admission concurrency must be positive, got {concurrency}"
            )
        self.max_depth = max_depth
        self.concurrency = concurrency
        #: Optional :class:`~repro.obs.EventLog`: every shed also lands
        #: there as a structured ``shed`` event.
        self.events = events
        #: Optional per-tenant quota policy: an object whose
        #: ``check(request, queue, max_depth)`` returns a shed message
        #: when the request's tenant is over its queue share (``None``
        #: admits).  See :class:`~repro.fleet.tenancy.TenantQuota`.
        self.quota = quota
        self.condition = threading.Condition()
        self.closed = False
        self._queue: Deque[Request] = deque()
        #: EWMA of observed per-query service seconds.  ``None`` until
        #: the first completion: the cold start is deliberately
        #: optimistic (estimated wait 0.0) so a burst arriving before
        #: any completion is never shed with ``reason="deadline"`` off a
        #: guessed service time — the first *measurement* seeds it.
        self._ewma_seconds: Optional[float] = None
        registry = registry if registry is not None else null_registry()
        self._depth_gauge = registry.gauge(
            "serve_queue_depth", "Requests waiting for a pipeline slot."
        )
        self._admitted = registry.counter(
            "serve_admitted_total", "Requests accepted into the queue."
        )
        self._shed: Dict[str, object] = {
            reason: registry.counter(
                "serve_shed_total",
                "Requests shed by admission control, by reason.",
                reason=reason,
            )
            for reason in (
                "queue-full", "deadline", "tenant-quota", "shutting-down",
            )
        }

    # -- client side ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Current queue depth (point-in-time; races are benign)."""
        return len(self._queue)

    def admit(self, request: Request) -> None:
        """Enqueue ``request`` or shed it with :class:`Overloaded`.

        Deadline admission is pessimistic about the *backlog*, not the
        request itself: with ``d`` queued requests and an EWMA estimate
        of ``s`` seconds per query over ``c`` concurrent executors, a
        new arrival waits roughly ``d * s / c`` seconds before its slot
        starts — if that already overshoots the deadline, executing it
        would only waste a slot on an answer nobody is waiting for.
        """
        with self.condition:
            if self.closed:
                self._shed_locked(
                    request,
                    "shutting-down",
                    "service is shutting down and admits no new requests",
                )
            now = time.monotonic()
            if request.deadline is not None:
                wait = self.estimated_wait()
                if request.expired(now) or now + wait > request.deadline:
                    self._shed_locked(
                        request,
                        "deadline",
                        f"deadline budget exhausted: estimated queue wait "
                        f"{wait:.4f}s exceeds the "
                        f"{max(0.0, request.deadline - now):.4f}s remaining",
                    )
            if self.quota is not None:
                verdict = self.quota.check(request, self._queue, self.max_depth)
                if verdict is not None:
                    self._shed_locked(request, "tenant-quota", verdict)
            if len(self._queue) >= self.max_depth:
                self._shed_locked(
                    request,
                    "queue-full",
                    f"admission queue is full ({self.max_depth} requests)",
                )
            request.timeline["queued"] = now
            self._queue.append(request)
            self._admitted.inc()
            self._depth_gauge.set(len(self._queue))
            self.condition.notify_all()

    # -- scheduler side ------------------------------------------------------

    def pop_slot(
        self,
        plan_extras: Callable[[Request, Sequence[Request]], List[Request]],
        choose_head: Optional[Callable[[Sequence[Request]], int]] = None,
    ) -> List[Request]:
        """Dequeue the next slot head plus scheduler-chosen companions.

        Must be called with :attr:`condition` held.  Requests whose
        deadline expired while queued are shed (their waiters get the
        typed ``"deadline"`` error) instead of dispatched.  The
        ``choose_head`` callback (when given) sees the live backlog and
        returns the index of the request that forms the slot — the
        weighted-fair hook; the default is strict FIFO (index 0).  The
        ``plan_extras`` callback sees the head and a snapshot of the
        remaining backlog and returns the companions to co-schedule;
        they are removed from the queue preserving arrival order.
        """
        now = time.monotonic()
        # Sweep expired requests from the whole backlog: with fair head
        # selection the next head is not necessarily the oldest entry,
        # so expiry can strike anywhere in the queue.
        live: Deque[Request] = deque()
        for request in self._queue:
            if request.expired(now):
                self._shed_locked(
                    request,
                    "deadline",
                    "deadline passed while the request was queued",
                    raise_error=False,
                )
            else:
                live.append(request)
        self._queue = live
        if not self._queue:
            self._depth_gauge.set(0)
            return []
        index = 0
        if choose_head is not None:
            index = choose_head(tuple(self._queue))
            if not 0 <= index < len(self._queue):
                index = 0
        if index:
            self._queue.rotate(-index)
            head = self._queue.popleft()
            self._queue.rotate(index)
        else:
            head = self._queue.popleft()
        extras = plan_extras(head, tuple(self._queue))
        if extras:
            chosen = set(map(id, extras))
            self._queue = deque(
                request for request in self._queue if id(request) not in chosen
            )
        self._depth_gauge.set(len(self._queue))
        return [head] + list(extras)

    def note_service_seconds(self, per_query: float) -> None:
        """Feed one observed per-query service time into the EWMA.

        The first completion *seeds* the estimate (no smoothing against
        a made-up prior); later ones blend in with ``_EWMA_ALPHA``.  An
        explicit ``None`` sentinel — not a ``0.0`` initial value — marks
        the unseeded state, so a genuine sub-resolution first
        measurement still seeds rather than being mistaken for "never
        observed".
        """
        with self.condition:
            if self._ewma_seconds is None:
                self._ewma_seconds = per_query
            else:
                self._ewma_seconds = (
                    (1.0 - _EWMA_ALPHA) * self._ewma_seconds
                    + _EWMA_ALPHA * per_query
                )

    def estimated_wait(self) -> float:
        """Estimated seconds the backlog needs before a new arrival runs.

        Before the first completion there is no measured basis for a
        wait estimate, so the cold start answers 0.0 — deadline shedding
        only ever acts on measured history, never on a hard-coded guess.
        """
        if self._ewma_seconds is None:
            return 0.0
        return len(self._queue) * self._ewma_seconds / self.concurrency

    # -- lifecycle -----------------------------------------------------------

    def close(self, drain: bool = True) -> List[Request]:
        """Stop admitting; optionally shed the backlog.

        With ``drain=True`` (graceful) queued requests stay and will be
        executed; with ``drain=False`` every queued request is failed
        with the ``"shutting-down"`` error.  Returns the requests that
        remain queued.
        """
        with self.condition:
            self.closed = True
            if not drain:
                while self._queue:
                    self._shed_locked(
                        self._queue.popleft(),
                        "shutting-down",
                        "service shut down before this request was scheduled",
                        raise_error=False,
                    )
            self._depth_gauge.set(len(self._queue))
            self.condition.notify_all()
            return list(self._queue)

    def _shed_locked(
        self,
        request: Request,
        reason: str,
        message: str,
        raise_error: bool = True,
    ) -> None:
        """Record a shed and deliver/raise the typed error (lock held)."""
        self._shed[reason].inc()
        if self.events is not None:
            self.events.emit(
                "shed",
                message,
                source="admission",
                severity="warning",
                reason=reason,
                request=str(request.id),
                tenant=request.tenant,
            )
        error = Overloaded(
            f"request {request.id} ({request.query.describe()}) shed: {message}",
            reason,
        )
        if raise_error:
            raise error
        request.fail(error)
