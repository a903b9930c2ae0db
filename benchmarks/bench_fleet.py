"""Fleet serving: locality routing, tenant fairness, rolling updates.

Three measurements over the :mod:`repro.fleet` subsystem, all at equal
correctness (every answer is asserted equal to the reference executor's
output before any number is recorded):

* **locality** — a mixed-tenant workload over a two-ToR/one-spine
  fabric with two replicas.  The router places each request by table
  homing (tables hash onto ToRs; the replica on the home ToR takes the
  table's requests while it is below saturation), so the gated figure
  is the locality hit fraction against the 1/replicas baseline random
  placement would achieve.  Per-tenant p50/p99 latency (merged across replicas
  bucket-by-bucket) rides along, and zero cross-tenant starvation is
  asserted.
* **fairness** — an A/B on one replica: a flooding tenant enqueues a
  deep backlog while the service is paused, a quiet tenant adds one
  request last, then the scheduler is released.  Under FIFO the quiet
  request completes after the entire flood; under the weighted-fair
  policy it leads a slot within a couple of selection rounds.  The
  gated figure is the completion-position ratio (FIFO position /
  weighted-fair position) — deterministic by construction, since the
  whole backlog is formed before the first slot pops.
* **rolling update** — the fleet swaps to regenerated tables
  replica-by-replica *under load*: clients keep issuing requests
  throughout, every in-window answer must match the old or the new
  tables' reference output, at least one replica stays active at every
  step (asserted via ``last_update_kept_capacity``), and post-update
  answers must match the new tables exactly.
"""

from __future__ import annotations

import threading

from repro.engine.cluster import ClusterConfig
from repro.engine.reference import run_reference
from repro.engine.sql import parse
from repro.fleet import (
    FabricTopology,
    FleetController,
    TenantQuota,
    WeightedFairPolicy,
)
from repro.serve import QueryService, ServeClient
from repro.workloads import bigdata

from _harness import emit, env_int, table

ROWS = env_int("CHEETAH_BENCH_FLEET_N", 4000)
REQUESTS_PER_TENANT = env_int("CHEETAH_BENCH_FLEET_REQUESTS", 6)
FLOOD = env_int("CHEETAH_BENCH_FLEET_FLOOD", 20)
TENANTS = 3
REPLICAS = 2

#: The mixed fleet workload: packable single-pass queries over both
#: tables, so locality routing has two distinct table homes to resolve.
_WORKLOAD = (
    "SELECT COUNT(*) FROM UserVisits WHERE duration > 30",
    "SELECT DISTINCT userAgent FROM UserVisits",
    "SELECT userAgent, MAX(adRevenue) FROM UserVisits GROUP BY userAgent",
    "SELECT COUNT(*) FROM Rankings WHERE avgDuration < 10",
    "SELECT TOP 20 duration FROM UserVisits ORDER BY adRevenue DESC",
    "SELECT COUNT(*) FROM Rankings WHERE pageRank > 50",
)


def _tables(seed: int) -> dict:
    scale = bigdata.BigDataScale(
        rankings_rows=max(500, ROWS // 2),
        uservisits_rows=ROWS,
        distinct_urls=max(200, ROWS // 5),
    )
    return bigdata.tables(scale, seed=seed)


def _drive(fleet, tenants, per_tenant, expected, mismatches):
    """Run ``tenants`` client threads against the fleet; join them all."""
    def loop(index: int) -> None:
        client = ServeClient(
            fleet, tenant=f"tenant-{index}", retries=3, seed=index
        )
        for i in range(per_tenant):
            sql = _WORKLOAD[(index + i) % len(_WORKLOAD)]
            output = client.query(sql)
            if output != expected[sql]:
                mismatches.append(sql)

    threads = [
        threading.Thread(target=loop, args=(i,), daemon=True)
        for i in range(tenants)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _fairness_position(tables, fair: bool) -> int:
    """Completion position of the quiet tenant's request (0-indexed).

    The backlog is fully formed while the scheduler is paused and the
    executor runs one slot at a time, so completion order equals
    slot-formation order and the position is deterministic.
    """
    policy = WeightedFairPolicy(starvation_rounds=max(8, FLOOD * 2)) if fair else None
    service = QueryService(
        tables,
        workers=3,
        config=ClusterConfig(seed=0),
        max_queue=FLOOD + 8,
        worker_threads=1,
        max_pack=1,
        fairness=policy,
    )
    try:
        service.pause()
        flood = [
            service.submit(
                parse(f"SELECT COUNT(*) FROM UserVisits WHERE duration > {i}"),
                tenant="flood",
            )
            for i in range(FLOOD)
        ]
        quiet = service.submit(
            parse("SELECT COUNT(*) FROM Rankings WHERE pageRank > 10"),
            tenant="quiet",
        )
        service.resume()
        for ticket in flood:
            ticket.result()
        quiet.result()
        completed = sorted(
            flood + [quiet], key=lambda t: t.timeline["completed"]
        )
        position = completed.index(quiet)
        if policy is not None:
            assert policy.snapshot()["starvation_events"] == 0, (
                "weighted-fair arm must not starve anyone"
            )
        return position
    finally:
        service.shutdown(drain=True)


def test_fleet_report():
    tables = _tables(seed=7)
    expected = {sql: run_reference(parse(sql), tables) for sql in _WORKLOAD}
    topology = FabricTopology.two_tier(tors=2, spines=1)
    assert len(topology) >= 3

    fleet = FleetController(
        tables,
        topology=topology,
        replicas=REPLICAS,
        quota=TenantQuota(max_share=0.5),
        saturation=64,
        max_queue=64,
        seed=7,
    )
    mismatches: list = []
    _drive(fleet, TENANTS, REQUESTS_PER_TENANT, expected, mismatches)
    assert not mismatches, f"fleet answers diverged on: {mismatches}"

    # Rolling update under load: clients keep querying while tables swap.
    new_tables = _tables(seed=8)
    expected_new = {
        sql: run_reference(parse(sql), new_tables) for sql in _WORKLOAD
    }
    window_errors: list = []

    def window_loop(index: int) -> None:
        client = ServeClient(
            fleet, tenant=f"tenant-{index}", retries=3, seed=100 + index
        )
        for i in range(REQUESTS_PER_TENANT):
            sql = _WORKLOAD[(index + i) % len(_WORKLOAD)]
            output = client.query(sql)
            if output != expected[sql] and output != expected_new[sql]:
                window_errors.append(sql)

    window_threads = [
        threading.Thread(target=window_loop, args=(i,), daemon=True)
        for i in range(TENANTS)
    ]
    for thread in window_threads:
        thread.start()
    version = fleet.rolling_update(new_tables)
    for thread in window_threads:
        thread.join()
    assert version == 1
    assert fleet.last_update_kept_capacity, (
        "rolling update must keep at least one replica active at every step"
    )
    assert not window_errors, (
        f"in-window answers matched neither table version: {window_errors}"
    )
    post = fleet.query("SELECT COUNT(*) FROM Rankings WHERE pageRank > 50")
    assert post == expected_new[
        "SELECT COUNT(*) FROM Rankings WHERE pageRank > 50"
    ]

    fleet.shutdown(drain=True)
    report = fleet.report()
    summary = report["summary"]
    assert summary["starvation_events"] == 0, "no tenant may starve"
    assert summary["failed"] == 0
    routes = summary["routes"]
    total_routes = sum(routes.values())
    locality_fraction = routes["locality"] / total_routes
    baseline_fraction = 1.0 / REPLICAS
    locality_speedup = locality_fraction / baseline_fraction
    assert locality_fraction > baseline_fraction, (
        f"locality routing ({locality_fraction:.2%}) must beat random "
        f"placement ({baseline_fraction:.2%})"
    )

    # Fairness A/B (single replica, deterministic backlog).
    fifo_pos = _fairness_position(tables, fair=False)
    fair_pos = _fairness_position(tables, fair=True)
    assert fifo_pos == FLOOD, "FIFO must serve the quiet tenant last"
    assert fair_pos <= 3, (
        f"weighted-fair must serve the quiet tenant within a few rounds, "
        f"got position {fair_pos}"
    )
    fairness_speedup = (fifo_pos + 1) / (fair_pos + 1)

    rows = []
    for tenant, figures in sorted(report["latency_ms"].items()):
        rows.append(
            [tenant, figures["count"], f"{figures['p50']:.2f}",
             f"{figures['p99']:.2f}"]
        )
    lines = table(["tenant", "requests", "p50 ms", "p99 ms"], rows)
    lines.append("")
    lines.append(
        f"fabric: {len(topology.tors)} ToR + {len(topology.spines)} spine "
        f"({len(topology)} switches), {REPLICAS} replicas, "
        f"{TENANTS} tenants x {2 * REQUESTS_PER_TENANT} requests"
    )
    lines.append(
        f"routing: {routes['locality']} locality / {routes['spillover']} "
        f"spillover / {routes['least-loaded']} least-loaded "
        f"({locality_fraction:.2%} locality vs {baseline_fraction:.2%} "
        f"random baseline = {locality_speedup:.2f}x)"
    )
    lines.append(
        f"fairness: quiet tenant completes at position {fifo_pos} under "
        f"FIFO vs {fair_pos} under weighted-fair over a {FLOOD}-deep "
        f"flood = {fairness_speedup:.2f}x; 0 starvation events fleet-wide"
    )
    lines.append(
        f"rolling update: v{version} under load, capacity retained, "
        f"{summary['cache_hits']} shared-cache hits, all answers exact "
        f"(old-or-new inside the window, new after)"
    )
    emit(
        "fleet",
        lines,
        {
            "rows": ROWS,
            "replicas": REPLICAS,
            "tenants": TENANTS,
            "switches": len(topology),
            "workloads": {
                "locality": {
                    "speedup": locality_speedup,
                    "fraction": locality_fraction,
                },
                "fairness": {
                    "speedup": fairness_speedup,
                    "fifo_position": fifo_pos,
                    "fair_position": fair_pos,
                },
            },
            "routes": routes,
            "latency_ms": report["latency_ms"],
            "starvation_events": summary["starvation_events"],
            "update_kept_capacity": summary["last_update_kept_capacity"],
        },
    )


if __name__ == "__main__":
    test_fleet_report()
