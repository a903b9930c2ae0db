"""The self-healing adaptive runtime: store, planner, engine, fences.

Exercises :mod:`repro.adapt` with deterministic fakes: the
:class:`~repro.adapt.AdaptiveConfigStore` batch-boundary fence, action
planning with footprint validation, the remediation engine's
confirmation/canary/rollback lifecycle under an injected clock, the
circuit breaker with freeze expiry, signature-scoped cache
invalidation, and the satellite robustness fixes (admission cold start,
health-store eviction under churn).
"""

from __future__ import annotations

import time

import pytest

from repro.adapt import (
    OUTCOMES,
    AdaptiveConfigStore,
    RemediationAction,
    RemediationEngine,
    plan_action,
)
from repro.adapt.engine import FREEZE_S, MAX_ACTIONS
from repro.engine.cluster import ClusterConfig
from repro.errors import ConfigurationError, Overloaded
from repro.obs import EventLog, HealthStore, MetricsRegistry
from repro.obs.health import MAX_SIGNATURES
from repro.serve.admission import AdmissionController, Request
from repro.serve.cache import ProgramCache, ResultCache


# ---------------------------------------------------------------------------
# adaptive config store: the batch-boundary fence


def test_stage_promotes_immediately_when_idle():
    store = AdaptiveConfigStore(ClusterConfig())
    override = ClusterConfig(distinct_rows=128)
    version = store.stage("q", override)
    assert version == 1
    assert store.active("q") is override
    assert store.effective("q") is override
    assert not store.pending("q")


def test_stage_defers_promotion_until_lease_exit():
    store = AdaptiveConfigStore(ClusterConfig())
    override = ClusterConfig(distinct_rows=128)
    with store.lease("q") as pinned:
        assert pinned is None
        store.stage("q", override)
        # Staged mid-pass: the running pass keeps its pinned config.
        assert store.pending("q")
        assert store.active("q") is None
    # Lease exit is the batch boundary.
    assert not store.pending("q")
    assert store.active("q") is override


def test_promotion_waits_for_last_inflight_lease():
    store = AdaptiveConfigStore(ClusterConfig())
    override = ClusterConfig(distinct_rows=128)
    outer = store.lease("q")
    inner = store.lease("q")
    outer.__enter__()
    inner.__enter__()
    store.stage("q", override)
    inner.__exit__(None, None, None)
    assert store.pending("q"), "one pass still inflight"
    outer.__exit__(None, None, None)
    assert store.active("q") is override


def test_lease_pins_promoted_override_and_later_stage_waits():
    store = AdaptiveConfigStore(ClusterConfig())
    first = ClusterConfig(distinct_rows=128)
    second = ClusterConfig(distinct_rows=256)
    store.stage("q", first)
    with store.lease("q") as pinned:
        assert pinned is first
        store.stage("q", second)
        assert store.active("q") is first
    assert store.active("q") is second
    assert store.version("q") == 2


def test_stage_none_reverts_to_base_config():
    base = ClusterConfig()
    store = AdaptiveConfigStore(base)
    store.stage("q", ClusterConfig(distinct_rows=128))
    store.stage("q", None)
    assert store.active("q") is None
    assert store.effective("q") is base
    assert store.version("q") == 2


def test_snapshot_reports_per_signature_state():
    store = AdaptiveConfigStore(ClusterConfig())
    store.stage("q", ClusterConfig(distinct_rows=128))
    snap = store.snapshot()
    assert snap["q"]["version"] == 1
    assert snap["q"]["overridden"]
    assert not snap["q"]["staged"]
    assert snap["q"]["promotions"] == 1


# ---------------------------------------------------------------------------
# action planning


def test_plan_distinct_resize_doubles_rows():
    config = ClusterConfig(distinct_rows=512)
    action = plan_action("pruning_collapse", "distinct", config)
    assert action.action == "sketch-resize"
    assert action.config.distinct_rows == 1024
    assert action.metric == "pruning_ratio"
    assert action.higher_is_better
    assert not action.hot_swap


def test_plan_distinct_falls_back_to_policy_swap_when_resize_cannot_fit():
    # A cache already at the SRAM budget cannot double; the planner
    # offers the replacement-policy swap instead of nothing.
    config = ClusterConfig(distinct_rows=1 << 24)
    action = plan_action("cache_fill_alarm", "distinct", config)
    assert action.action == "variant-swap"
    assert action.config.distinct_policy == "fifo"
    assert action.config.distinct_rows == config.distinct_rows


def test_plan_topn_deterministic_swaps_to_randomized_hot_swap():
    config = ClusterConfig(topn_randomized=False)
    action = plan_action("pruning_collapse", "topn", config)
    assert action.action == "variant-swap"
    assert action.config.topn_randomized
    assert action.hot_swap, "swaps the pruner variant"


def test_plan_topn_randomized_resizes_rows():
    config = ClusterConfig(topn_randomized=True, topn_rows=1024)
    action = plan_action("pruning_collapse", "topn", config)
    assert action.action == "sketch-resize"
    assert action.config.topn_rows == 2048


def test_plan_join_resize_judged_by_error_metric():
    config = ClusterConfig(join_memory_bits=1 << 20)
    action = plan_action("bloom_fpr_alarm", "join", config)
    assert action.config.join_memory_bits == 2 << 20
    assert action.metric == "bloom_fpr"
    assert not action.higher_is_better
    fill = plan_action("bloom_fill_growth", "join", config)
    assert fill.metric == "bloom_fill"


def test_plan_groupby_and_having_resizes():
    assert (
        plan_action("pruning_collapse", "groupby", ClusterConfig()).config.groupby_rows
        == 2 * ClusterConfig().groupby_rows
    )
    assert (
        plan_action("cache_fill_alarm", "having", ClusterConfig()).config.having_width
        == 2 * ClusterConfig().having_width
    )


def test_plan_unknown_detector_or_operator_is_unactionable():
    assert plan_action("latency_spike", "distinct", ClusterConfig()) is None
    assert plan_action("pruning_collapse", None, ClusterConfig()) is None
    assert plan_action("pruning_collapse", "skyline", ClusterConfig()) is None


# ---------------------------------------------------------------------------
# remediation engine lifecycle (fake health, fake clock)


class FakeHealth:
    """A scriptable HealthStore facade for deterministic engine tests."""

    def __init__(self) -> None:
        self.run_counts = {}
        self.op_kinds = {}
        self.means = {}
        self.degraded = {}

    def runs(self, signature):
        return self.run_counts.get(signature, 0)

    def op_kind(self, signature):
        return self.op_kinds.get(signature)

    def recent_mean(self, signature, signal, samples):
        return self.means.get((signature, signal))

    def snapshot(self):
        return [
            {"signature": signature, "degraded": [detector]}
            for signature, detector in self.degraded.items()
        ]


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_engine(**overrides):
    health = FakeHealth()
    store = AdaptiveConfigStore(ClusterConfig(distinct_rows=64))
    events = EventLog()
    registry = MetricsRegistry()
    clock = FakeClock()
    invalidated = []
    options = dict(
        health=health,
        store=store,
        events=events,
        registry=registry,
        invalidate=invalidated.append,
        cooldown_s=0.0,
        canary_runs=3,
        clock=clock,
    )
    options.update(overrides)
    engine = RemediationEngine(**options)
    return engine, health, store, events, registry, clock, invalidated


def degrade(health, signature="q", detector="pruning_collapse", runs=10, mean=0.05):
    health.degraded[signature] = detector
    health.op_kinds[signature] = "distinct"
    health.run_counts[signature] = runs
    health.means[("q", "pruning_ratio")] = mean


def counter_value(registry, name, **labels):
    key = name + "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
    return registry.counter_values().get(key, 0)


def test_engine_waits_for_confirmation_window_before_acting():
    engine, health, store, _, _, _, _ = make_engine()
    degrade(health, runs=10)
    assert engine.tick() == 0, "first sighting only opens the window"
    assert store.version("q") == 0
    # Degradation must persist for canary_runs further runs.
    health.run_counts["q"] = 12
    assert engine.tick() == 0
    health.run_counts["q"] = 13
    assert engine.tick() == 1
    assert store.version("q") == 1


def run_until_applied(engine, health, store):
    """Open and pass the confirmation window, returning the new version."""
    before = store.version("q")
    engine.tick()
    health.run_counts["q"] += engine.canary_runs
    engine.tick()
    assert store.version("q") == before + 1
    return store.version("q")


def test_engine_commits_on_measured_improvement():
    engine, health, store, events, registry, _, invalidated = make_engine()
    degrade(health, mean=0.05)
    run_until_applied(engine, health, store)
    assert store.active("q").distinct_rows == 128
    assert invalidated == ["q"]
    # Canary window not yet filled: no verdict.
    assert engine.tick() == 0
    health.run_counts["q"] += engine.canary_runs
    health.means[("q", "pruning_ratio")] = 0.60
    assert engine.tick() >= 1
    stats = engine.stats()["signatures"]["q"]
    assert stats["committed"] == 1
    assert not stats["pending_canary"]
    assert stats["actions_since_commit"] == 0, "commit re-arms the budget"
    assert store.active("q").distinct_rows == 128, "committed config stays"
    assert counter_value(
        registry, "adapt_actions_total", action="sketch-resize", outcome="committed"
    ) == 1
    kinds = [e["kind"] for e in events.snapshot()]
    assert "remediation-action" in kinds
    assert "remediation-rollback" not in kinds


def test_engine_rolls_back_without_improvement():
    engine, health, store, events, registry, _, invalidated = make_engine()
    degrade(health, mean=0.05)
    run_until_applied(engine, health, store)
    health.run_counts["q"] += engine.canary_runs
    # The canary window measured no better than the baseline.
    health.means[("q", "pruning_ratio")] = 0.05
    engine.tick()
    assert store.active("q") is None, "prior (base) configuration restored"
    assert store.version("q") == 2, "rollback is itself a fenced stage"
    assert invalidated == ["q", "q"], "caches invalidated on apply AND rollback"
    assert counter_value(
        registry, "adapt_actions_total", action="sketch-resize", outcome="rolled-back"
    ) == 1
    rollback = [e for e in events.snapshot() if e["kind"] == "remediation-rollback"]
    assert len(rollback) == 1
    assert rollback[0]["labels"]["signature"] == "q"
    assert rollback[0]["labels"]["action"] == "sketch-resize"


def test_engine_rolls_back_when_canary_signal_never_materialized():
    engine, health, store, _, _, _, _ = make_engine()
    degrade(health)
    run_until_applied(engine, health, store)
    health.run_counts["q"] += engine.canary_runs
    health.means[("q", "pruning_ratio")] = None
    engine.tick()
    assert store.active("q") is None, "no measurement is never improvement"


def test_engine_requires_margin_not_noise():
    engine, health, store, _, _, _, _ = make_engine()
    degrade(health, mean=0.50)
    run_until_applied(engine, health, store)
    health.run_counts["q"] += engine.canary_runs
    # +0.4% on a 50% baseline is inside the noise margin (5% relative).
    health.means[("q", "pruning_ratio")] = 0.504
    engine.tick()
    assert store.active("q") is None, "sub-margin gain rolls back"


def test_unactionable_detection_is_counted_not_guessed():
    engine, health, store, _, registry, _, _ = make_engine()
    degrade(health)
    health.op_kinds["q"] = "skyline"  # no safe action for this operator
    engine.tick()
    health.run_counts["q"] += engine.canary_runs
    engine.tick()
    assert store.version("q") == 0, "no config was staged"
    assert counter_value(
        registry, "adapt_actions_total", action="none", outcome="unactionable"
    ) == 1


def test_circuit_breaker_freezes_flapping_signature_then_rearms():
    engine, health, store, events, registry, clock, _ = make_engine()
    degrade(health, mean=0.05)

    def flap_once():
        run_until_applied(engine, health, store)
        health.run_counts["q"] += engine.canary_runs
        engine.tick()  # canary fails (mean never changes) -> rollback

    for _ in range(MAX_ACTIONS):
        flap_once()
    # Budget exhausted: the next planned action trips the breaker.
    engine.tick()
    health.run_counts["q"] += engine.canary_runs
    engine.tick()
    frozen = [e for e in events.snapshot() if e["kind"] == "remediation-frozen"]
    assert len(frozen) == 1
    assert frozen[0]["labels"]["signature"] == "q"
    assert counter_value(
        registry, "adapt_actions_total", action="sketch-resize", outcome="frozen"
    ) == 1
    version = store.version("q")
    # Frozen: ticks change nothing no matter how degraded the signal.
    for _ in range(5):
        health.run_counts["q"] += 1
        assert engine.tick() == 0
    assert store.version("q") == version
    assert engine.stats()["signatures"]["q"]["frozen"]
    # Freeze expiry re-arms the budget; the engine may act again.
    clock.now += FREEZE_S + 1.0
    run_until_applied(engine, health, store)
    assert store.version("q") == version + 1
    assert len(
        [e for e in events.snapshot() if e["kind"] == "remediation-frozen"]
    ) == 1, "one structured event per freeze"


def test_cooldown_blocks_back_to_back_actions():
    engine, health, store, _, _, clock, _ = make_engine(cooldown_s=5.0)
    degrade(health)
    run_until_applied(engine, health, store)
    health.run_counts["q"] += engine.canary_runs
    engine.tick()  # rollback (no improvement) at t=0; cooldown until t=5
    version = store.version("q")
    health.run_counts["q"] += engine.canary_runs
    assert engine.tick() == 0, "cooling down"
    clock.now = 6.0
    engine.tick()
    health.run_counts["q"] += engine.canary_runs
    engine.tick()
    assert store.version("q") == version + 1


def test_hot_swap_actions_double_counted():
    def planner(detector, op_kind, config):
        from dataclasses import replace

        return RemediationAction(
            action="variant-swap",
            config=replace(config, topn_randomized=True),
            detail="forced",
            metric="pruning_ratio",
            hot_swap=True,
        )

    engine, health, store, _, registry, _, _ = make_engine(planner=planner)
    degrade(health)
    run_until_applied(engine, health, store)
    assert counter_value(
        registry, "adapt_actions_total", action="variant-swap", outcome="applied"
    ) == 1
    assert counter_value(
        registry, "adapt_actions_total", action="hot-swap", outcome="applied"
    ) == 1


def test_degraded_signature_stays_actionable_after_event_scrolls_away():
    # Hysteresis emits ONE degradation event per excursion; the engine
    # must keep acting off the health snapshot's active excursions.
    engine, health, store, _, _, _, _ = make_engine()
    degrade(health)
    events_free_engine = engine  # no degradation event was ever emitted
    run_until_applied(events_free_engine, health, store)
    assert store.version("q") == 1


def test_engine_validates_guardrail_parameters():
    health = FakeHealth()
    store = AdaptiveConfigStore(ClusterConfig())
    with pytest.raises(ConfigurationError):
        RemediationEngine(health=health, store=store, canary_runs=0)


def test_engine_consumes_degradation_events():
    engine, health, store, events, _, _, _ = make_engine()
    health.op_kinds["q"] = "distinct"
    health.run_counts["q"] = 10
    health.means[("q", "pruning_ratio")] = 0.05
    # Degradation arrives only as an event (hysteresis already reset the
    # snapshot flag): the engine must still pick it up via its cursor.
    events.emit(
        "degradation",
        "pruning collapsed",
        source="health",
        severity="warning",
        detector="pruning_collapse",
        signature="q",
    )
    engine.tick()  # opens the confirmation window off the event
    health.run_counts["q"] = 13
    engine.tick()
    assert store.version("q") == 1


def test_outcomes_tuple_is_stable():
    assert OUTCOMES == (
        "applied",
        "committed",
        "rolled-back",
        "frozen",
        "unactionable",
    )


# ---------------------------------------------------------------------------
# version-fenced cache invalidation


class _Plan:
    """A query stub exposing cache_key()."""

    def __init__(self, key: str) -> None:
        self._key = key

    def cache_key(self) -> str:
        return self._key


def test_program_cache_invalidate_drops_solo_entries():
    cache = ProgramCache()
    cache.footprint(_Plan("sig-a"), lambda: "fp-a")
    cache.footprint(_Plan("sig-b"), lambda: "fp-b")
    assert cache.invalidate_signature("sig-a") == 1
    assert cache.footprint(_Plan("sig-a"), lambda: "rebuilt") == "rebuilt"
    assert cache.footprint(_Plan("sig-b"), lambda: "rebuilt") == "fp-b"


def test_result_cache_invalidate_drops_every_version():
    cache = ResultCache()
    cache.put("sig-a", 1, {1})
    cache.put("sig-a", 2, {2})
    cache.put("sig-b", 1, {3})
    assert cache.invalidate_signature("sig-a") == 2
    assert cache.get("sig-a", 1) == (False, None)
    assert cache.get("sig-a", 2) == (False, None)
    hit, output = cache.get("sig-b", 1)
    assert hit and output == frozenset({3})


def test_event_log_since_and_last_seq():
    log = EventLog(capacity=4)
    for i in range(6):
        log.emit("k", f"m{i}")
    assert log.since(0)[-1].seq == 6  # the last emitted seq
    fresh = log.since(4)
    assert [e.seq for e in fresh] == [5, 6]
    assert log.since(6) == []
    # Ring eviction: seqs 1-2 are gone, not re-delivered.
    assert [e.seq for e in log.since(0)] == [3, 4, 5, 6]


# ---------------------------------------------------------------------------
# satellite: admission EWMA cold start


class _Query:
    def describe(self) -> str:
        return "stub"


def test_cold_start_burst_with_deadlines_is_not_shed():
    admission = AdmissionController(max_depth=16, concurrency=1)
    assert admission._ewma_seconds is None
    assert admission.estimated_wait() == 0.0
    # A burst with tight deadlines arrives before ANY completion: no
    # measured history exists, so deadline shedding must not act.
    for _ in range(8):
        admission.admit(Request(_Query(), deadline=time.monotonic() + 0.25))
    assert admission.depth == 8


def test_first_completion_seeds_ewma_exactly():
    admission = AdmissionController(max_depth=16, concurrency=2)
    admission.note_service_seconds(2.0)
    assert admission._ewma_seconds == 2.0, "seeded, not blended with a prior"
    admission.note_service_seconds(4.0)
    assert admission._ewma_seconds == pytest.approx(2.0 * 0.8 + 4.0 * 0.2)


def test_deadline_shedding_acts_once_history_exists():
    admission = AdmissionController(max_depth=16, concurrency=1)
    admission.admit(Request(_Query(), deadline=time.monotonic() + 30.0))
    admission.note_service_seconds(10.0)
    # Backlog of 1 x 10s estimate: a 50ms deadline cannot be met.
    with pytest.raises(Overloaded) as caught:
        admission.admit(Request(_Query(), deadline=time.monotonic() + 0.05))
    assert caught.value.reason == "deadline"


def test_zero_measured_service_time_still_counts_as_seeded():
    admission = AdmissionController(max_depth=16, concurrency=1)
    admission.note_service_seconds(0.0)
    assert admission._ewma_seconds == 0.0
    assert admission.estimated_wait() == 0.0


# ---------------------------------------------------------------------------
# satellite: health-store signature eviction under churn


class FakeResult:
    def __init__(self, pruning_rate: float) -> None:
        self.pruning_rate = pruning_rate
        self.metrics = None
        self.op_kind = "distinct"


def test_eviction_under_churn_bounds_the_store():
    store = HealthStore()
    for i in range(MAX_SIGNATURES + 48):
        store.observe_run(f"sig-{i}", FakeResult(0.5), 0.01)
    assert len(store) == MAX_SIGNATURES
    assert store.runs(f"sig-{MAX_SIGNATURES + 47}") == 1
    assert store.runs("sig-0") == 0, "evicted signatures leave no state"


def test_recently_observed_signature_survives_churn():
    store = HealthStore()
    for i in range(2 * MAX_SIGNATURES):
        store.observe_run("hot", FakeResult(0.5), 0.01)
        store.observe_run(f"cold-{i}", FakeResult(0.5), 0.01)
    assert store.runs("hot") == 2 * MAX_SIGNATURES, "recency keeps the live signature"
    assert len(store) == MAX_SIGNATURES


def test_evicted_signature_returns_with_fresh_detector_state():
    store = HealthStore()
    events = []
    # Drive "victim" into a pruning collapse (active excursion).
    for _ in range(6):
        store.observe_run("victim", FakeResult(0.9), 0.01)
    for _ in range(6):
        store.observe_run("victim", FakeResult(0.0), 0.01)
    degraded = {
        entry["signature"]: entry["degraded"] for entry in store.snapshot()
    }
    assert "pruning_collapse" in degraded["victim"]
    # Churn it out, then bring it back healthy.
    for i in range(MAX_SIGNATURES):
        store.observe_run(f"churn-{i}", FakeResult(0.5), 0.01)
    assert store.runs("victim") == 0
    store.observe_run("victim", FakeResult(0.9), 0.01)
    entry = [e for e in store.snapshot() if e["signature"] == "victim"][0]
    assert entry["runs"] == 1, "windows do not leak across eviction"
    assert entry["degraded"] == [], "detector state re-armed on return"
    assert events == []


def test_remediation_accessors_on_evicted_signature_are_safe():
    store = HealthStore()
    store.observe_run("gone", FakeResult(0.5), 0.01)
    for i in range(MAX_SIGNATURES):
        store.observe_run(f"here-{i}", FakeResult(0.5), 0.01)
    assert store.op_kind("gone") is None
    assert store.recent_mean("gone", "pruning_ratio", 3) is None
    assert store.signal_values("gone", "pruning_ratio") == []
