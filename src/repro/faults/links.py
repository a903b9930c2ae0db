"""Fault-injecting link models for the reliability transports.

:class:`ChaosLink` extends the random-loss
:class:`~repro.net.reliability.LossyLink` with *scheduled* faults: exact
transmission indices to drop, plus an optional blackout window during
which every message is lost (a rebooting switch port, a flapping cable).
Because the schedule is positional rather than probabilistic, tests can
force a loss at precisely the transmission they care about.

A link replaces one of a transfer's four hops by assignment::

    transfer = ReliableTransfer(pruner)
    transfer.uplink = ChaosLink(0.0, random.Random(0), drop_at={3, 7})
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Tuple

from ..net.reliability import LossyLink


class ChaosLink(LossyLink):
    """A lossy link with scheduled drops and an optional blackout window."""

    def __init__(
        self,
        loss: float,
        rng: random.Random,
        drop_at: Iterable[int] = (),
        blackout: Optional[Tuple[int, int]] = None,
    ) -> None:
        super().__init__(loss, rng)
        self._drop_at = set(drop_at)
        if blackout is not None and blackout[0] > blackout[1]:
            blackout = (blackout[1], blackout[0])
        self._blackout = blackout
        self.scheduled_drops = 0

    def deliver(self) -> bool:
        """Scheduled faults first, then the base random-loss coin flip."""
        index = self.sent
        scheduled = index in self._drop_at or (
            self._blackout is not None
            and self._blackout[0] <= index < self._blackout[1]
        )
        if scheduled:
            self.sent += 1
            self.dropped += 1
            self.scheduled_drops += 1
            return False
        return super().deliver()
