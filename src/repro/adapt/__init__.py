""":mod:`repro.adapt` — the self-healing adaptive runtime.

The closed feedback loop the roadmap's "measured-not-modeled adaptive
runtime" item asks for: :class:`~repro.obs.health.HealthStore` detects a
degraded query signature, :class:`RemediationEngine` plans and applies a
guarded recovery action (sketch resize, pruner variant swap), and the
:class:`AdaptiveConfigStore` promotes the new configuration at a batch
boundary so exactness is never at risk mid-pass.  Canary windows measure every action against the pre-action
rolling window; no improvement means automatic rollback, and flapping
trips a per-signature circuit breaker.
"""

from .actions import RESIZE_FACTOR, RemediationAction, plan_action
from .engine import OUTCOMES, RemediationEngine
from .store import AdaptiveConfigStore

__all__ = [
    "OUTCOMES",
    "RESIZE_FACTOR",
    "AdaptiveConfigStore",
    "RemediationAction",
    "RemediationEngine",
    "plan_action",
]
