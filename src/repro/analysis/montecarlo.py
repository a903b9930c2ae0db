"""Monte-Carlo verification of probabilistic guarantees (§5).

The randomized pruners promise ``Pr[Q(A_Q(D)) != Q(D)] <= delta``.  This
module estimates that failure probability empirically: run the same
stream through independently seeded pruner instances, check each output
against the exact answer, and report the failure rate to compare
against ``delta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.base import Pruner
from ..errors import ConfigurationError


@dataclass(frozen=True)
class FailureEstimate:
    """Result of a Monte-Carlo failure-rate run."""

    trials: int
    failures: int

    @property
    def rate(self) -> float:
        """Point estimate of the failure probability."""
        return self.failures / self.trials


def estimate_failure_rate(
    make_pruner: Callable[[int], Pruner],
    stream: Sequence,
    is_correct: Callable[[Sequence], bool],
    trials: int = 50,
) -> FailureEstimate:
    """Run ``trials`` independently seeded pruners and count failures.

    Parameters
    ----------
    make_pruner:
        Factory taking a seed and returning a fresh pruner.
    stream:
        The input stream (same for every trial; the randomness under test
        is the pruner's, not the data's).
    is_correct:
        Predicate on the survivor list: True when the completed query
        matches the exact answer.
    """
    if trials <= 0:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    failures = 0
    for seed in range(trials):
        pruner = make_pruner(seed)
        survivors = pruner.survivors(stream)
        if not is_correct(survivors):
            failures += 1
    return FailureEstimate(trials=trials, failures=failures)
