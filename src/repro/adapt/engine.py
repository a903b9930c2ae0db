"""The closed-loop remediation engine: detection → action → canary → verdict.

:class:`RemediationEngine` subscribes to the
:class:`~repro.obs.health.HealthStore`'s degradation stream (both the
structured ``degradation`` events in the :class:`~repro.obs.events.
EventLog` and the store's currently-active excursions) and executes
guarded recovery actions per query signature.  Each :meth:`tick`:

1. **judges pending canaries** — an applied action whose canary window
   has filled is compared against its pre-action baseline: a measured
   improvement commits the new configuration, anything else rolls back
   to the prior one;
2. **plans new actions** for degraded signatures that are not frozen,
   cooling down, or already under canary — the planner
   (:func:`~repro.adapt.actions.plan_action` by default) proposes one
   footprint-validated candidate;
3. **applies** the chosen action by *staging* it in the
   :class:`~repro.adapt.store.AdaptiveConfigStore` (the engine promotes
   it at the next batch boundary), bumping the signature's config
   version, and invalidating the serving caches for the touched
   signature atomically (the version fence).

Guardrails, all per signature:

* **cooldown** — at most one action per ``cooldown_s`` window, so a
  slow-burning canary is never trampled by a second swap;
* **confirmation window** — detection alone triggers nothing; the
  signature must stay degraded for ``canary_runs`` further runs first,
  so the canary baseline holds only samples measured under the
  configuration the action replaces (detectors typically fire on the
  *first* degraded run, when the rolling window is still mostly healthy);
* **canary window** — the next ``canary_runs`` measured runs decide the
  action's fate; no modeled numbers enter the verdict;
* **automatic rollback** — "no measured improvement" (including "the
  canary signal never materialized") restores the prior configuration;
* **circuit breaker** — ``MAX_ACTIONS`` applies without a commit freeze
  the signature for ``FREEZE_S`` (one structured ``remediation-frozen``
  event); a frozen signature takes no further actions until the freeze
  expires, and a committed action re-arms the budget.

Every transition is counted as ``adapt_actions_total{action,outcome}``
and recorded in a bounded history (the ``repro adapt`` JSONL artifact).
The engine is thread-safe; ``clock`` is injectable so cooldown, freeze,
and flapping dynamics are deterministic under test.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError
from .actions import RemediationAction, plan_action

#: Circuit breaker: applications without a commit before the signature
#: freezes, and how long the freeze lasts (seconds).
MAX_ACTIONS = 3
FREEZE_S = 30.0
#: Commit margin: a canary must beat its baseline by
#: ``max(MIN_DELTA, MIN_IMPROVEMENT * |baseline|)``.
MIN_IMPROVEMENT = 0.05
MIN_DELTA = 0.01
#: Action-history records kept.
HISTORY_LIMIT = 256

#: Stable outcome tags on the ``adapt_actions_total`` counter.
OUTCOMES = (
    "applied",
    "committed",
    "rolled-back",
    "frozen",
    "unactionable",
)


class _Canary:
    """One applied action awaiting its measured verdict."""

    __slots__ = (
        "action",
        "detector",
        "prior",
        "version",
        "baseline",
        "runs_target",
        "applied_at",
    )

    def __init__(
        self,
        action: RemediationAction,
        detector: str,
        prior: Optional[object],
        version: int,
        baseline: Optional[float],
        runs_target: int,
        applied_at: float,
    ) -> None:
        self.action = action
        self.detector = detector
        self.prior = prior
        self.version = version
        self.baseline = baseline
        self.runs_target = runs_target
        self.applied_at = applied_at


class _SignatureState:
    """Guardrail state for one signature."""

    __slots__ = (
        "cooldown_until",
        "frozen_until",
        "actions",
        "pending",
        "committed",
        "confirm_at",
    )

    def __init__(self) -> None:
        self.cooldown_until = 0.0
        self.frozen_until: Optional[float] = None
        #: Actions applied since the last commit / freeze expiry — the
        #: circuit-breaker budget.
        self.actions = 0
        self.pending: Optional[_Canary] = None
        self.committed = 0
        #: Run count the signature must reach before an action may be
        #: planned — the *confirmation window*.  Detection often fires on
        #: the very first degraded run, when the rolling windows still
        #: hold healthy (or just-rolled-back) samples; acting immediately
        #: would poison the canary baseline with them.  Waiting
        #: ``canary_runs`` further runs under the current configuration
        #: makes baseline and canary each measure exactly one config.
        self.confirm_at: Optional[int] = None


class RemediationEngine:
    """Guarded per-signature recovery actions over live health signals."""

    def __init__(
        self,
        health,
        store,
        events=None,
        registry=None,
        invalidate: Optional[Callable[[str], None]] = None,
        planner: Callable[..., Optional[RemediationAction]] = plan_action,
        cooldown_s: float = 1.0,
        canary_runs: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Wire the engine to its stores.

        ``health`` is the :class:`~repro.obs.health.HealthStore` feeding
        detections and canary measurements; ``store`` the
        :class:`~repro.adapt.store.AdaptiveConfigStore` actions are
        staged into; ``events`` the shared event log (consumed for
        ``degradation`` events, written for the remediation kinds);
        ``invalidate`` the serving-layer callback dropping
        ProgramCache/ResultCache entries for a swapped signature.
        """
        if canary_runs <= 0:
            raise ConfigurationError(
                f"canary_runs must be positive, got {canary_runs}"
            )
        self.health = health
        self.store = store
        self.events = events
        self.registry = registry
        self.invalidate = invalidate
        self.planner = planner
        self.cooldown_s = cooldown_s
        self.canary_runs = canary_runs
        self._clock = clock
        self._lock = threading.Lock()
        self._cursor = 0
        self._states: Dict[str, _SignatureState] = {}
        #: Event-sourced detections awaiting consideration.  The event
        #: cursor consumes each ``degradation`` event exactly once, but
        #: the confirmation window spans several ticks — the watch-list
        #: keeps the detection alive until the engine concludes it
        #: (action planned, unactionable, or breaker tripped).
        self._watching: Dict[str, str] = {}
        self._history: List[dict] = []

    # -- the control loop ----------------------------------------------------

    def tick(self) -> int:
        """One remediation pass; returns how many state changes it made.

        A "state change" is an apply, commit, rollback, or freeze —
        ticks on a healthy service return 0 and cost two dictionary
        scans.  Safe to call from a background thread, a test, or the
        ``repro adapt`` CLI loop interchangeably.
        """
        with self._lock:
            now = self._clock()
            changes = self._judge_canaries_locked(now)
            for signature, detector in self._degraded_locked().items():
                changes += self._consider_locked(signature, detector, now)
            return changes

    def _degraded_locked(self) -> Dict[str, str]:
        """Signatures needing attention, mapped to the firing detector.

        Fresh ``degradation`` events (since the cursor) are merged with
        the health store's currently-active excursions: hysteresis means
        an excursion emits one event, but a rolled-back signature that
        is *still* degraded must stay actionable on later ticks.
        """
        degraded: Dict[str, str] = dict(self._watching)
        if self.events is not None:
            fresh = self.events.since(self._cursor)
            if fresh:
                self._cursor = fresh[-1].seq
            for event in fresh:
                if event.kind != "degradation":
                    continue
                signature = event.labels.get("signature")
                detector = event.labels.get("detector", "")
                if signature:
                    degraded[signature] = detector
                    self._watching[signature] = detector
        for summary in self.health.snapshot():
            active = summary.get("degraded") or []
            if active and summary["signature"] not in degraded:
                degraded[summary["signature"]] = active[0]
        return degraded

    def _consider_locked(self, signature: str, detector: str, now: float) -> int:
        state = self._states.setdefault(signature, _SignatureState())
        if state.pending is not None:
            return 0
        if state.frozen_until is not None:
            if now < state.frozen_until:
                return 0
            # Freeze expired: the budget re-arms and the signature may
            # be acted on again.
            state.frozen_until = None
            state.actions = 0
        if now < state.cooldown_until:
            return 0
        runs = self.health.runs(signature)
        if state.confirm_at is None:
            state.confirm_at = runs + self.canary_runs
            return 0
        if runs < state.confirm_at:
            return 0
        config = self.store.effective(signature)
        action = self.planner(detector, self.health.op_kind(signature), config)
        # Consideration concludes here whatever the outcome; a still-
        # degraded signature re-enters via the health snapshot.
        self._watching.pop(signature, None)
        if action is None:
            state.cooldown_until = now + self.cooldown_s
            self._count("none", "unactionable")
            self._record(
                signature,
                action="none",
                outcome="unactionable",
                detector=detector,
                detail="no safe recovery action for this detector/operator",
            )
            return 0
        if state.actions >= MAX_ACTIONS:
            return self._freeze_locked(signature, state, action, detector, now)
        return self._apply_locked(signature, state, action, detector, now)

    def _apply_locked(
        self,
        signature: str,
        state: _SignatureState,
        action: RemediationAction,
        detector: str,
        now: float,
    ) -> int:
        prior = self.store.active(signature)
        baseline = self.health.recent_mean(
            signature, action.metric, self.canary_runs
        )
        version = self.store.stage(signature, action.config)
        if self.invalidate is not None:
            self.invalidate(signature)
        state.pending = _Canary(
            action=action,
            detector=detector,
            prior=prior,
            version=version,
            baseline=baseline,
            runs_target=self.health.runs(signature) + self.canary_runs,
            applied_at=now,
        )
        state.cooldown_until = now + self.cooldown_s
        state.confirm_at = None
        state.actions += 1
        self._count(action.action, "applied")
        if action.hot_swap:
            self._count("hot-swap", "applied")
        self._emit(
            "remediation-action",
            f"{action.detail} (detector {detector}, canary "
            f"{self.canary_runs} runs)",
            severity="info",
            signature=signature,
            action=action.action,
            detector=detector,
            detail=action.detail,
            version=str(version),
            hot_swap=str(action.hot_swap).lower(),
        )
        self._record(
            signature,
            action=action.action,
            outcome="applied",
            detector=detector,
            detail=action.detail,
            version=version,
            baseline=baseline,
        )
        return 1

    def _freeze_locked(
        self,
        signature: str,
        state: _SignatureState,
        action: RemediationAction,
        detector: str,
        now: float,
    ) -> int:
        state.frozen_until = now + FREEZE_S
        state.confirm_at = None
        self._count(action.action, "frozen")
        self._emit(
            "remediation-frozen",
            f"circuit breaker tripped after {state.actions} actions "
            f"without improvement; frozen for {FREEZE_S:.0f}s",
            severity="warning",
            signature=signature,
            actions=str(state.actions),
            freeze_s=f"{FREEZE_S:.3f}",
        )
        self._record(
            signature,
            action=action.action,
            outcome="frozen",
            detector=detector,
            detail=f"budget of {MAX_ACTIONS} actions exhausted",
        )
        return 1

    # -- canary judgment -----------------------------------------------------

    def _judge_canaries_locked(self, now: float) -> int:
        changes = 0
        for signature, state in self._states.items():
            canary = state.pending
            if canary is None:
                continue
            if self.health.runs(signature) < canary.runs_target:
                continue
            post = self.health.recent_mean(
                signature, canary.action.metric, self.canary_runs
            )
            if self._improved(canary, post):
                state.pending = None
                state.actions = 0
                state.committed += 1
                self._count(canary.action.action, "committed")
                if canary.action.hot_swap:
                    self._count("hot-swap", "committed")
                self._record(
                    signature,
                    action=canary.action.action,
                    outcome="committed",
                    detector=canary.detector,
                    detail=canary.action.detail,
                    version=canary.version,
                    baseline=canary.baseline,
                    measured=post,
                )
            else:
                self._rollback_locked(signature, state, canary, post, now)
            changes += 1
        return changes

    def _improved(self, canary: _Canary, post: Optional[float]) -> bool:
        """The measured verdict: did the canary window beat the baseline?

        A missing measurement on either side is *not* improvement —
        rollback is the safe default when nothing was measured.
        """
        if canary.baseline is None or post is None:
            return False
        margin = max(MIN_DELTA, MIN_IMPROVEMENT * abs(canary.baseline))
        if canary.action.higher_is_better:
            return post >= canary.baseline + margin
        return post <= canary.baseline - margin

    def _rollback_locked(
        self,
        signature: str,
        state: _SignatureState,
        canary: _Canary,
        post: Optional[float],
        now: float,
    ) -> None:
        version = self.store.stage(signature, canary.prior)
        if self.invalidate is not None:
            self.invalidate(signature)
        state.pending = None
        state.cooldown_until = now + self.cooldown_s
        self._count(canary.action.action, "rolled-back")
        if canary.action.hot_swap:
            self._count("hot-swap", "rolled-back")
        measured = "no measurement" if post is None else f"{post:.4f}"
        baseline = (
            "no baseline" if canary.baseline is None else f"{canary.baseline:.4f}"
        )
        self._emit(
            "remediation-rollback",
            f"{canary.action.detail} rolled back: canary measured "
            f"{measured} vs baseline {baseline}",
            severity="warning",
            signature=signature,
            action=canary.action.action,
            version=str(version),
        )
        self._record(
            signature,
            action=canary.action.action,
            outcome="rolled-back",
            detector=canary.detector,
            detail=canary.action.detail,
            version=version,
            baseline=canary.baseline,
            measured=post,
        )

    # -- accounting ----------------------------------------------------------

    def _count(self, action: str, outcome: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                "adapt_actions_total",
                "Remediation actions by family and outcome.",
                action=action,
                outcome=outcome,
            ).inc()

    def _emit(self, kind: str, message: str, severity: str, **labels) -> None:
        if self.events is not None:
            self.events.emit(
                kind, message, source="adapt", severity=severity, **labels
            )

    def _record(self, signature: str, **fields) -> None:
        record = {"signature": signature, "at": self._clock(), **fields}
        self._history.append(record)
        if len(self._history) > HISTORY_LIMIT:
            del self._history[: len(self._history) - HISTORY_LIMIT]

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready engine state for ``QueryService.report()``."""
        with self._lock:
            now = self._clock()
            signatures = {}
            for signature, state in self._states.items():
                signatures[signature] = {
                    "pending_canary": state.pending is not None,
                    "frozen": (
                        state.frozen_until is not None
                        and now < state.frozen_until
                    ),
                    "actions_since_commit": state.actions,
                    "committed": state.committed,
                    "cooling_down": now < state.cooldown_until,
                }
            return {
                "signatures": signatures,
                "history": list(self._history),
                "overrides": self.store.snapshot(),
            }

    def to_jsonl(self, path: str) -> int:
        """Write the action history to ``path`` as JSONL; returns the count."""
        with self._lock:
            history = list(self._history)
        with open(path, "w") as handle:
            for record in history:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(history)
