"""Exception hierarchy for the Cheetah reproduction.

All library-raised exceptions derive from :class:`CheetahError` so callers
can catch a single type at API boundaries.
"""

from __future__ import annotations


class CheetahError(Exception):
    """Base class for all errors raised by this library."""


class ResourceError(CheetahError):
    """A switch program does not fit the hardware resource model.

    Raised by the compiler when a pruner configuration exceeds the number
    of stages, ALUs per stage, SRAM, TCAM entries, or PHV bits of the
    target :class:`repro.switch.resources.ResourceModel`.
    """


class UnsupportedOperationError(CheetahError):
    """An operation is not expressible in the switch's function set.

    The PISA model supports hashing, comparisons, addition and bit
    operations; multiplication, division, string matching and similar
    operations raise this error when attempted on the simulated dataplane.
    """


class ConfigurationError(CheetahError):
    """A pruner or engine component was configured with invalid parameters."""


class ProtocolError(CheetahError):
    """The reliability protocol observed an impossible state transition."""


class ChecksumError(ProtocolError):
    """A framed packet failed its CRC check (corrupted in transit).

    Raised by :meth:`repro.net.packets.CheetahPacket.decode_frame`; the
    transport treats it exactly like a link drop — the frame is discarded
    before the master's decode path and the per-packet timer retransmits.
    """


class PlanError(CheetahError):
    """A logical query plan is malformed or references unknown columns."""


class Overloaded(CheetahError):
    """The serving layer shed this request (admission control).

    Raised by :mod:`repro.serve` when a request cannot be admitted or
    completed: the bounded queue is full, the request's deadline budget
    is already exhausted (or expired while queued), or the service is
    draining for shutdown.  ``reason`` is a stable machine-readable tag
    (``"queue-full"``, ``"deadline"``, ``"shutting-down"``) mirrored into
    the ``serve_shed_total`` counter labels — a shed request always gets
    this typed error, never a wrong or partial answer.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class ShardTimeout(CheetahError):
    """A parallel shard task exceeded ``ClusterConfig.shard_timeout``.

    The runner retries a timed-out shard once on the pool and then runs
    it sequentially in the parent as a last resort; this error is raised
    only when that in-process fallback *also* fails, wrapping the
    underlying cause.  ``shard`` identifies the offending shard.
    """

    def __init__(self, message: str, shard: int) -> None:
        super().__init__(message)
        self.shard = shard


class SharedMemoryUnavailable(CheetahError):
    """OS shared memory could not be allocated for the parallel dataplane.

    Raised by :mod:`repro.parallel.shm` when exporting column blocks
    fails (no ``/dev/shm``, exhausted segments, restricted sandbox).  The
    cluster catches it and falls back to the sequential execution path;
    ``reason`` labels that fallback (``parallel_fallback_total{reason}``).
    """

    def __init__(self, message: str, reason: str = "no-shared-memory") -> None:
        super().__init__(message)
        self.reason = reason
