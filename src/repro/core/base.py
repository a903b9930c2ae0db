"""The pruning abstraction (paper §3).

A pruning algorithm ``A_Q`` for query ``Q`` maps a data stream ``D`` to a
subset ``A_Q(D) ⊆ D`` such that ``Q(A_Q(D)) == Q(D)`` — deterministically,
or with probability ``1 - delta`` for the randomized variants of §5.
Every concrete pruner in this package implements :class:`Pruner`:

* :meth:`Pruner.process` — the per-packet dataplane decision
  (:data:`PruneDecision.PRUNE` or :data:`PruneDecision.FORWARD`);
* :meth:`Pruner.footprint` — its Table 2 hardware cost, so the compiler
  can reject configurations that do not fit;
* :attr:`Pruner.guarantee` — deterministic or probabilistic.

Crucially, every pruner satisfies the *superset-safety* property §7.2
relies on: forwarding a superset of what the pruner chose (e.g. because a
pruned packet's retransmission slipped through) never changes the query
output.  The master's completion step is idempotent over duplicates and
extra entries.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from enum import Enum
from typing import Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..obs import MetricsRegistry, ratio
from ..switch.resources import ResourceFootprint, ResourceModel, TOFINO

Entry = TypeVar("Entry")


def batch_length(entries) -> int:
    """Number of logical entries in a batch, for any accepted batch form.

    Batches are either a plain sequence of scalar entries, or a *columnar*
    form — a tuple/list of equal-length numpy arrays (one per field) — in
    which case the batch length is the length of the columns, not the
    number of columns.  A 2-D array counts its rows.
    """
    if isinstance(entries, np.ndarray):
        return entries.shape[0]
    if (
        isinstance(entries, (tuple, list))
        and len(entries) > 0
        and isinstance(entries[0], np.ndarray)
        and all(isinstance(column, np.ndarray) for column in entries)
    ):
        return len(entries[0])
    return len(entries)


def as_keyed_batch(entries) -> Tuple[Sequence, np.ndarray, int]:
    """Normalize a keyed batch to ``(keys, values, count)``.

    Keyed pruners (GROUP BY, HAVING) accept either a sequence of
    ``(key, value)`` pairs or the columnar form — a ``(keys, values)``
    pair of equal-length arrays.
    """
    if (
        isinstance(entries, (tuple, list))
        and len(entries) == 2
        and isinstance(entries[0], np.ndarray)
        and isinstance(entries[1], np.ndarray)
    ):
        return entries[0], entries[1], len(entries[0])
    count = len(entries)
    keys = [entry[0] for entry in entries]
    values = np.asarray([entry[1] for entry in entries], dtype=np.float64)
    return keys, values, count


def iter_batches(entries: Sequence, batch_size: int) -> Iterator[Sequence]:
    """Slice a scalar-entry sequence into consecutive chunks."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    for start in range(0, len(entries), batch_size):
        yield entries[start : start + batch_size]


class PruneDecision(Enum):
    """The dataplane's verdict for one packet."""

    PRUNE = "prune"
    FORWARD = "forward"


class Guarantee(Enum):
    """Correctness guarantee class of a pruning algorithm (§4 vs §5)."""

    DETERMINISTIC = "deterministic"
    PROBABILISTIC = "probabilistic"


class PruneStats:
    """Running decision counters — a thin view over registry samples.

    The counters themselves live in a :class:`~repro.obs.MetricsRegistry`
    (``pruner_entries_processed_total`` / ``pruner_entries_pruned_total``),
    so the same numbers appear in exports and roll-ups; this view keeps
    the historical ``stats.processed`` / ``stats.pruned`` /
    ``stats.forwarded`` / ``stats.pruning_rate`` API working unchanged.
    Constructed with no arguments it owns a private registry, so
    standalone uses (``PruneStats()``) still work.
    """

    __slots__ = ("_processed", "_pruned")

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, **labels: object
    ) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self._processed = registry.counter(
            "pruner_entries_processed_total",
            "Entries the pruner made a decision for.",
            **labels,
        )
        self._pruned = registry.counter(
            "pruner_entries_pruned_total",
            "Entries the pruner dropped at the switch.",
            **labels,
        )

    @property
    def processed(self) -> int:
        """Entries a decision was made for."""
        return self._processed.value

    @property
    def pruned(self) -> int:
        """Entries dropped at the switch."""
        return self._pruned.value

    @property
    def forwarded(self) -> int:
        """Packets passed through to the master (derived)."""
        return self._processed.value - self._pruned.value

    @property
    def pruning_rate(self) -> float:
        """Fraction of processed entries pruned (0 when nothing processed)."""
        return ratio(self._pruned.value, self._processed.value)

    def record(self, decision: PruneDecision) -> None:
        """Account one decision."""
        self._processed.inc()
        if decision is PruneDecision.PRUNE:
            self._pruned.inc()

    def record_batch(self, processed: int, pruned: int) -> None:
        """Account a whole batch of decisions at once."""
        self._processed.inc(processed)
        self._pruned.inc(pruned)

    def reset(self) -> None:
        """Zero both counters in place."""
        self._processed.zero()
        self._pruned.zero()

    def __repr__(self) -> str:
        return (
            f"PruneStats(processed={self.processed}, pruned={self.pruned})"
        )


class Pruner(ABC, Generic[Entry]):
    """Base class for all switch pruning algorithms.

    Every pruner owns a :class:`~repro.obs.MetricsRegistry` (``metrics``)
    that its decision counters and sketch-health gauges report into; the
    cluster absorbs it into the per-run registry after a run.

    ``reset()`` is final: it always clears the registry and the decision
    counters, then calls the :meth:`_reset_state` hook.  Subclasses
    implement ``_reset_state`` for their own dataplane state — attempting
    to override ``reset`` itself raises ``TypeError`` at class-definition
    time, so a subclass can never silently skip the stats reset.
    """

    #: Guarantee class; overridden by probabilistic variants.
    guarantee: Guarantee = Guarantee.DETERMINISTIC

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.stats = PruneStats(self.metrics, pruner=type(self).__name__)

    def __init_subclass__(cls, **kwargs) -> None:
        """Reject subclasses that try to override the final ``reset``."""
        super().__init_subclass__(**kwargs)
        if "reset" in cls.__dict__:
            raise TypeError(
                f"{cls.__name__} must not override Pruner.reset(); "
                "implement _reset_state() instead so stats/registry reset "
                "cannot be skipped"
            )

    @abstractmethod
    def process(self, entry: Entry) -> PruneDecision:
        """Decide PRUNE/FORWARD for one entry, updating switch state."""

    @abstractmethod
    def footprint(self) -> ResourceFootprint:
        """Hardware resources this configuration consumes (Table 2)."""

    def reset(self) -> None:
        """Clear all dataplane state (new query / switch reboot).

        Final: zeroes the metrics registry (decision counters included,
        in place, so held ``stats`` views stay valid) and then delegates
        pruner-specific state to :meth:`_reset_state` and
        :meth:`_reset_host_state`, so a reset pruner is indistinguishable
        from a freshly built one with the same arguments.
        """
        self.metrics.reset()
        self.stats.reset()
        self._reset_state()
        self._reset_host_state()

    def _reset_state(self) -> None:
        """Hook: clear subclass-specific dataplane state (sketches, slots)."""

    def _reset_host_state(self) -> None:
        """Hook: rewind state kept off the switch (a stream position).
        Not called by :meth:`reboot`: a switch reboot wipes the dataplane
        and the CWorker goes on where it was."""

    def observe_health(self) -> None:
        """Hook: refresh sketch-health gauges on :attr:`metrics`.

        Idempotent; called by the cluster just before it absorbs the
        pruner's registry into the run report.  The base implementation
        does nothing — pruners backed by sketches override it.
        """

    # -- fault hooks ---------------------------------------------------------

    def reboot(self) -> None:
        """Simulate a switch reboot: dataplane state is lost mid-query.

        Unlike the final :meth:`reset` (a deliberate new-query reset that
        also zeroes the registry), a reboot wipes *only* the switch-side
        state via :meth:`_reset_state` — the controller keeps its metrics,
        so decision counts from before the crash survive into the run
        report, and the reboot itself is counted.
        """
        self.metrics.counter(
            "pruner_reboots_total",
            "Mid-query switch reboots this pruner absorbed.",
            pruner=type(self).__name__,
        ).inc()
        self._reset_state()

    def corrupt_state(self, rng: random.Random) -> Optional[str]:
        """Flip bits in the pruner's dataplane state (fault injection).

        Delegates to the :meth:`_corrupt_state` hook and counts the event
        when the pruner actually had state to corrupt.  Returns a short
        human-readable description of what was garbled, or ``None`` for
        stateless pruners (filtering) — the injector then treats the
        bit-flip as landing in unused SRAM.
        """
        description = self._corrupt_state(rng)
        if description is not None:
            self.metrics.counter(
                "pruner_state_corruptions_total",
                "Injected bit corruptions that hit live pruner state.",
                pruner=type(self).__name__,
            ).inc()
        return description

    def _corrupt_state(self, rng: random.Random) -> Optional[str]:
        """Hook: corrupt subclass dataplane state; ``None`` when stateless."""
        return None

    def with_metrics(self, registry: MetricsRegistry) -> "Pruner[Entry]":
        """Rebind this pruner's samples onto ``registry`` and return self.

        Used to point a pruner at a shared registry — or at
        :func:`~repro.obs.null_registry` to switch instrumentation off
        when measuring its overhead.
        """
        self.metrics = registry
        self.stats = PruneStats(registry, pruner=type(self).__name__)
        return self

    def validate(self, model: ResourceModel = TOFINO) -> None:
        """Raise ``ResourceError`` when this pruner does not fit ``model``."""
        from ..switch.compiler import check_fits_cached

        check_fits_cached(self.footprint(), model)

    # -- batch dataplane -----------------------------------------------------

    def process_batch(self, entries) -> np.ndarray:
        """Decide a whole batch; ``result[i]`` is True when entry ``i`` is
        FORWARDed.

        The default implementation is a correct-by-construction scalar
        loop over a sequence of entries (state transitions and stats are
        byte-identical to calling :meth:`process` in a loop).  Subclasses
        with vectorizable semantics override it with numpy kernels and may
        additionally accept a columnar batch form — see each pruner's
        docstring.
        """
        return np.fromiter(
            (self.process(entry) is PruneDecision.FORWARD for entry in entries),
            dtype=bool,
            count=len(entries),
        )

    # -- convenience driving -----------------------------------------------

    def prune_stream(
        self, entries: Iterable[Entry], batch_size: Optional[int] = None
    ) -> Iterator[Entry]:
        """Yield the forwarded (surviving) entries of a stream.

        With ``batch_size`` set, the stream is materialized and driven
        through :meth:`process_batch` in chunks; decisions are identical
        to the scalar path.
        """
        if batch_size is None:
            for entry in entries:
                if self.process(entry) is PruneDecision.FORWARD:
                    yield entry
            return
        if not isinstance(entries, (list, tuple, np.ndarray)):
            entries = list(entries)
        for chunk in iter_batches(entries, batch_size):
            forward = self.process_batch(chunk)
            for index in np.flatnonzero(forward):
                yield chunk[index]

    def survivors(
        self, entries: Iterable[Entry], batch_size: Optional[int] = None
    ) -> List[Entry]:
        """Materialized :meth:`prune_stream`."""
        return list(self.prune_stream(entries, batch_size=batch_size))


class PassthroughPruner(Pruner[Entry]):
    """A pruner that never prunes — the no-switch baseline.

    Running any query pipeline with this pruner is exactly the software
    path; useful to validate that Cheetah-with-pruning and the baseline
    produce identical outputs.
    """

    def process(self, entry: Entry) -> PruneDecision:
        decision = PruneDecision.FORWARD
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Forward everything; only the stats counters move."""
        count = batch_length(entries)
        self.stats.record_batch(count, 0)
        return np.ones(count, dtype=bool)

    def footprint(self) -> ResourceFootprint:
        return ResourceFootprint(label="PASSTHROUGH")
