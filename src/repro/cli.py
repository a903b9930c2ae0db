"""Command-line interface: run SQL through Cheetah from a shell.

Usage examples::

    python -m repro query "SELECT DISTINCT userAgent FROM UserVisits"
    python -m repro query "SELECT TOP 100 duration FROM UserVisits ORDER BY adRevenue" --rows 50000
    python -m repro query "SELECT COUNT(*) FROM UserVisits WHERE duration > 30" --metrics-out m.json
    python -m repro metrics m.json
    python -m repro table2
    python -m repro workloads

The ``query`` subcommand generates the Big Data benchmark tables at the
requested scale, parses the SQL, executes it with switch pruning,
verifies the output against the reference executor, and prints volumes
plus modeled completion times.  ``--metrics-out PATH`` additionally
writes the structured run report (phase wall-times, per-pruner decision
counts, sketch-health gauges); the ``metrics`` subcommand pretty-prints
such a report, or re-exports it in Prometheus text format with
``--prom``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine.cluster import Cluster
from .engine.cost import CostModel
from .engine.sql import parse
from .errors import CheetahError
from .switch.compiler import table2
from .switch.resources import TOFINO
from .workloads import bigdata


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cheetah switch-pruning reproduction (SIGMOD 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="run a SQL query with switch pruning")
    query.add_argument("sql", help="the SELECT statement")
    query.add_argument("--rows", type=int, default=40_000,
                       help="UserVisits rows to generate (default 40000)")
    query.add_argument("--workers", type=int, default=5,
                       help="cluster workers (default 5)")
    query.add_argument("--parallelism", type=int, default=1,
                       help="shard processes for the dataplane (default 1: "
                            "sequential; >1 runs repro.parallel)")
    query.add_argument("--batch-size", type=int, default=None,
                       help="vectorized batch size (default: per-entry "
                            "streaming for single-pass plans in-process; "
                            "JOIN/HAVING/SKYLINE, pool shards, packed "
                            "slots and fault plans use 65536)")
    query.add_argument("--seed", type=int, default=0, help="workload seed")
    query.add_argument("--network-gbps", type=float, default=10.0,
                       help="NIC limit for the cost model (default 10)")
    query.add_argument("--no-verify", action="store_true",
                       help="skip the reference-executor check")
    query.add_argument("--csv", action="append", default=[], metavar="NAME=PATH",
                       help="load a table from CSV instead of generating it "
                            "(repeatable, e.g. --csv Ratings=ratings.csv)")
    query.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the structured run report (JSON) to PATH")

    explain_cmd = sub.add_parser(
        "explain", help="show the switch/master plan for a SQL query"
    )
    explain_cmd.add_argument("sql", help="the SELECT statement")

    metrics_cmd = sub.add_parser(
        "metrics", help="pretty-print a saved run report (see query --metrics-out)"
    )
    metrics_cmd.add_argument("path", help="a JSON report written by --metrics-out")
    metrics_cmd.add_argument("--prom", action="store_true",
                             help="emit the Prometheus text format instead")

    chaos_cmd = sub.add_parser(
        "chaos",
        help="replay a named fault-injection scenario and report degradations",
    )
    chaos_cmd.add_argument("--scenario", default=None,
                           help="scenario name (see --list)")
    chaos_cmd.add_argument("--list", action="store_true",
                           help="list the named scenarios and exit")
    chaos_cmd.add_argument("--seed", type=int, default=0,
                           help="fault-schedule seed (default 0)")
    chaos_cmd.add_argument("--rows", type=int, default=12_000,
                           help="UserVisits rows to generate (default 12000)")
    chaos_cmd.add_argument("--workers", type=int, default=5,
                           help="cluster workers (default 5)")
    chaos_cmd.add_argument("--policy", default="auto",
                           choices=("auto", "rebuild", "passthrough"),
                           help="JOIN probe-loss degradation policy")
    chaos_cmd.add_argument("--json", metavar="PATH", default=None,
                           help="write the deterministic fault report to PATH")

    serve_cmd = sub.add_parser(
        "serve",
        help="run the query-serving layer against a concurrent demo workload",
    )
    serve_cmd.add_argument("--rows", type=int, default=20_000,
                           help="UserVisits rows to generate (default 20000)")
    serve_cmd.add_argument("--workers", type=int, default=5,
                           help="cluster workers (default 5)")
    serve_cmd.add_argument("--threads", type=int, default=2,
                           help="executor threads in the service (default 2)")
    serve_cmd.add_argument("--clients", type=int, default=4,
                           help="concurrent client threads (default 4)")
    serve_cmd.add_argument("--requests", type=int, default=24,
                           help="total requests across all clients (default 24)")
    serve_cmd.add_argument("--max-queue", type=int, default=128,
                           help="admission queue depth (default 128)")
    serve_cmd.add_argument("--max-pack", type=int, default=4,
                           help="max queries per packed slot (default 4; "
                           "1 runs every slot solo)")
    serve_cmd.add_argument("--timeout", type=float, default=None,
                           help="per-request deadline budget in seconds")
    serve_cmd.add_argument("--parallelism", type=int, default=1,
                           help="shard processes per engine run (default 1)")
    serve_cmd.add_argument("--seed", type=int, default=0, help="workload seed")
    serve_cmd.add_argument("--verify", action="store_true",
                           help="re-check every answer against the reference "
                                "executor inside the service")
    serve_cmd.add_argument("--metrics-out", metavar="PATH", default=None,
                           help="write the service report (JSON envelope) to PATH")
    serve_cmd.add_argument("--trace-out", metavar="PATH", default=None,
                           help="write the request trace spans (JSONL) to PATH "
                                "(render with 'repro trace PATH')")
    serve_cmd.add_argument("--events-out", metavar="PATH", default=None,
                           help="write the structured event log (JSONL) to PATH")
    serve_cmd.add_argument("--fused-trace-sample", type=int, default=0,
                           help="sample every Nth single-pass batch as a "
                                "trace span (default 0: disabled)")
    serve_cmd.add_argument("--adapt", action="store_true",
                           help="enable the self-healing adaptive runtime "
                                "(closed-loop remediation with canary "
                                "windows and rollback)")
    serve_cmd.add_argument("--adapt-interval", type=float, default=0.25,
                           help="seconds between background remediation "
                                "ticks (default 0.25)")

    fleet_cmd = sub.add_parser(
        "fleet",
        help="run a multi-tenant replica fleet over a ToR/spine fabric "
             "against a mixed demo workload",
    )
    fleet_cmd.add_argument("--rows", type=int, default=8_000,
                           help="UserVisits rows to generate (default 8000)")
    fleet_cmd.add_argument("--replicas", type=int, default=2,
                           help="QueryService replicas (default 2)")
    fleet_cmd.add_argument("--tors", type=int, default=2,
                           help="ToR switches in the fabric (default 2)")
    fleet_cmd.add_argument("--spines", type=int, default=1,
                           help="spine switches in the fabric (default 1)")
    fleet_cmd.add_argument("--tenants", type=int, default=3,
                           help="concurrent tenants (default 3)")
    fleet_cmd.add_argument("--requests", type=int, default=36,
                           help="total requests across all tenants (default 36)")
    fleet_cmd.add_argument("--retries", type=int, default=2,
                           help="client retries after a typed shed (default 2)")
    fleet_cmd.add_argument("--max-queue", type=int, default=64,
                           help="per-replica admission queue depth (default 64)")
    fleet_cmd.add_argument("--timeout", type=float, default=None,
                           help="per-request deadline budget in seconds")
    fleet_cmd.add_argument("--rolling-update", action="store_true",
                           help="run a rolling table update mid-workload "
                                "(drain/fence/swap/readmit per replica)")
    fleet_cmd.add_argument("--seed", type=int, default=0, help="workload seed")
    fleet_cmd.add_argument("--verify", action="store_true",
                           help="re-check every answer against the reference "
                                "executor inside each replica")
    fleet_cmd.add_argument("--metrics-out", metavar="PATH", default=None,
                           help="write the fleet report (JSON envelope) to PATH")
    fleet_cmd.add_argument("--events-out", metavar="PATH", default=None,
                           help="write the fleet event log (JSONL) to PATH")

    adapt_cmd = sub.add_parser(
        "adapt",
        help="run the adaptive runtime A/B on a drifting demo workload",
    )
    adapt_cmd.add_argument("--pre-runs", type=int, default=10,
                           help="runs before the drift (default 10)")
    adapt_cmd.add_argument("--post-runs", type=int, default=24,
                           help="runs after the drift (default 24)")
    adapt_cmd.add_argument("--working-set", type=int, default=256,
                           help="pre-drift distinct values (default 256)")
    adapt_cmd.add_argument("--drift-working-set", type=int, default=4096,
                           help="post-drift distinct values (default 4096)")
    adapt_cmd.add_argument("--repeats", type=int, default=4,
                           help="times each run cycles its working set "
                                "(default 4)")
    adapt_cmd.add_argument("--distinct-rows", type=int, default=512,
                           help="initial DISTINCT cache rows (default 512)")
    adapt_cmd.add_argument("--workers", type=int, default=4,
                           help="cluster workers (default 4)")
    adapt_cmd.add_argument("--seed", type=int, default=0, help="workload seed")
    adapt_cmd.add_argument("--no-verify", action="store_true",
                           help="skip the per-run reference-executor check")
    adapt_cmd.add_argument("--events-out", metavar="PATH", default=None,
                           help="write the structured event log (JSONL) to PATH")
    adapt_cmd.add_argument("--actions-out", metavar="PATH", default=None,
                           help="write the remediation action history "
                                "(JSONL) to PATH")

    trace_cmd = sub.add_parser(
        "trace", help="render a trace JSONL export (see serve --trace-out) as trees"
    )
    trace_cmd.add_argument("path", help="a JSONL trace file")
    trace_cmd.add_argument("--trace-id", default=None,
                           help="show only this trace id")
    trace_cmd.add_argument("--limit", type=int, default=None,
                           help="show at most this many traces")

    health_cmd = sub.add_parser(
        "health",
        help="print the signature health and event snapshot of a service report",
    )
    health_cmd.add_argument("path", help="a JSON report written by serve --metrics-out")
    health_cmd.add_argument("--events", type=int, default=20,
                            help="most recent events to show (default 20)")

    sub.add_parser("table2", help="print the Table 2 resource footprints")
    sub.add_parser("workloads", help="list the generated tables and columns")
    return parser


def _tables(args: argparse.Namespace) -> dict:
    """The generated Big Data tables at ``--rows`` and ``--seed``."""
    scale = bigdata.BigDataScale(
        rankings_rows=max(1000, args.rows // 2),
        uservisits_rows=args.rows,
        distinct_urls=max(400, args.rows // 5),
    )
    return bigdata.tables(scale, seed=args.seed)


def _cmd_query(args: argparse.Namespace) -> int:
    tables = _tables(args)
    for spec in args.csv:
        name, _, csv_path = spec.partition("=")
        if not name or not csv_path:
            print(f"error: --csv expects NAME=PATH, got {spec!r}", file=sys.stderr)
            return 1
        from .engine.table import table_from_csv

        tables[name] = table_from_csv(csv_path, name=name)
    query = parse(args.sql)
    if "SKYLINE" in args.sql.upper():
        tables["Rankings"] = bigdata.permuted(tables["Rankings"], seed=args.seed)
    from .engine.cluster import ClusterConfig

    cluster = Cluster(
        workers=args.workers,
        config=ClusterConfig(
            batch_size=args.batch_size,
            parallelism=args.parallelism,
            seed=args.seed,
        ),
    )
    if args.no_verify:
        result = cluster.run(query, tables)
    else:
        result = cluster.run_verified(query, tables)
    model = CostModel(network_gbps=args.network_gbps)
    cheetah = model.cheetah_breakdown(result)
    spark = model.spark_breakdown(result, first_run=False)
    output = result.output
    size = len(output) if hasattr(output, "__len__") else output
    print(f"query    : {result.query}")
    print(f"output   : {size} "
          f"({'verified' if not args.no_verify else 'unverified'})")
    print(f"traffic  : {result.total_streamed} streamed, "
          f"{result.total_forwarded} forwarded "
          f"({result.pruning_rate:.2%} pruned)")
    print(f"modeled  : cheetah {cheetah.total:.3f}s "
          f"(worker {cheetah.worker:.3f} / send {cheetah.network:.3f} / "
          f"master {cheetah.master:.3f}), spark {spark.total:.3f}s "
          f"-> {spark.total / cheetah.total:.2f}x")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w") as handle:
            json.dump(result.report(), handle, indent=2, sort_keys=True)
        print(f"metrics  : written to {args.metrics_out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    with open(args.path) as handle:
        report = json.load(handle)
    metrics = report.get("metrics", {})
    if args.prom:
        from .obs import MetricsRegistry

        sys.stdout.write(MetricsRegistry.from_dict(metrics).to_prometheus())
        return 0
    print(f"query    : {report.get('query', '?')}")
    print(f"operator : {report.get('op_kind', '?')} "
          f"(cheetah={report.get('used_cheetah')}, "
          f"workers={report.get('workers')})")
    totals = report.get("totals", {})
    print(f"traffic  : {totals.get('streamed', 0)} streamed, "
          f"{totals.get('forwarded', 0)} forwarded, "
          f"{totals.get('pruned', 0)} pruned "
          f"({totals.get('pruning_rate', 0.0):.2%})")
    for phase in report.get("phases", ()):
        seconds = phase.get("seconds")
        timing = f"{seconds * 1000:.2f} ms" if seconds is not None else "-"
        print(f"phase    : {phase['name']:16s} streamed={phase['streamed']:>8d} "
              f"forwarded={phase['forwarded']:>8d} wall={timing}")
    for span in metrics.get("spans", ()):
        print(f"span     : {span['name']:16s} {span['seconds'] * 1000:.2f} ms")
    for entry in metrics.get("counters", ()):
        labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
        print(f"counter  : {entry['name']}{{{labels}}} = {entry['value']}")
    for entry in metrics.get("gauges", ()):
        labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
        print(f"gauge    : {entry['name']}{{{labels}}} = {entry['value']:.6g}")
    return 0


def _chaos_length(query, tables) -> int:
    """Entries the switch will process for ``query`` (fault positions)."""
    from .engine.plan import HavingOp, JoinOp

    op = query.operator
    if isinstance(op, JoinOp):
        # Build pass + probe pass each stream both key columns.
        return 2 * (tables[op.table].num_rows + tables[op.right_table].num_rows)
    if isinstance(op, HavingOp):
        table = tables[op.table]
        if query.where is not None:
            return int(query.where.mask(table).sum())
        return table.num_rows
    return tables[op.table].num_rows


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .engine.cluster import ClusterConfig
    from .engine.reference import run_reference
    from .faults.plan import SCENARIOS, scenario

    if args.list:
        for name in sorted(SCENARIOS):
            spec = SCENARIOS[name]
            print(f"{name:18s} {spec.query:12s} {spec.description}")
        return 0
    if args.scenario is None:
        print("error: --scenario NAME required (or --list)", file=sys.stderr)
        return 1
    spec = scenario(args.scenario)
    tables = _tables(args)
    if spec.query == "Q3-skyline":
        tables["Rankings"] = bigdata.permuted(tables["Rankings"], seed=args.seed)
    query = bigdata.benchmark_queries()[spec.query]
    plan = spec.build_plan(args.seed, _chaos_length(query, tables))
    cluster = Cluster(
        workers=args.workers,
        config=ClusterConfig(fault_plan=plan, degrade_policy=args.policy),
    )
    result = cluster.run(query, tables)
    expected = run_reference(query, tables)
    match = result.output == expected
    faults = result.faults or {}
    print(f"scenario : {spec.name} ({spec.description})")
    print(f"query    : {result.query}")
    print(f"seed     : {args.seed}  policy: {args.policy}")
    print(f"plan     : {len(plan)} scheduled events")
    for line in plan.describe():
        print(f"  - {line}")
    print(f"injected : {faults.get('injected', 0)} "
          f"{faults.get('by_kind', {})}")
    for degradation in faults.get("degradations", ()):
        print(f"degraded : [{degradation['op']}] {degradation['action']} "
              f"at entry {degradation['at']}: {degradation['reason']}")
    print(f"traffic  : {result.total_streamed} streamed, "
          f"{result.total_forwarded} forwarded "
          f"({result.pruning_rate:.2%} pruned)")
    print(f"output   : {'MATCHES reference' if match else 'MISMATCH'}")
    if args.json is not None:
        # Deliberately excludes wall-times: the artifact is byte-stable
        # for a fixed (scenario, seed, rows, workers) tuple.
        artifact = {
            "scenario": spec.name,
            "query": result.query,
            "seed": args.seed,
            "rows": args.rows,
            "workers": args.workers,
            "policy": args.policy,
            "plan": plan.to_dict(),
            "faults": faults,
            "totals": {
                "streamed": result.total_streamed,
                "forwarded": result.total_forwarded,
            },
            "phases": [
                {
                    "name": phase.name,
                    "streamed": phase.streamed,
                    "forwarded": phase.forwarded,
                }
                for phase in result.phases
            ],
            "output_matches_reference": match,
        }
        with open(args.json, "w") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
        print(f"report   : written to {args.json}")
    return 0 if match else 1


#: The mixed serving workload: four §6-packable single-pass queries over
#: UserVisits, a filter over Rankings (different table — never packs with
#: the others), and a multi-pass JOIN that always runs in a solo slot.
_SERVE_WORKLOAD = (
    "SELECT COUNT(*) FROM UserVisits WHERE duration > 30",
    "SELECT DISTINCT userAgent FROM UserVisits",
    "SELECT TOP 50 duration FROM UserVisits ORDER BY adRevenue DESC",
    "SELECT userAgent, MAX(adRevenue) FROM UserVisits GROUP BY userAgent",
    "SELECT COUNT(*) FROM Rankings WHERE avgDuration < 10",
    "SELECT * FROM UserVisits JOIN Rankings ON UserVisits.destURL = Rankings.pageURL",
)


def _reference_answers(tables) -> dict:
    """Each ``_SERVE_WORKLOAD`` query's unpruned answer, the clients' check."""
    from .engine.reference import run_reference

    return {sql: run_reference(parse(sql), tables) for sql in _SERVE_WORKLOAD}


def _drive_clients(make_client, clients: int, per_client: int, expected, during=None):
    """Run ``clients`` threads, each sending ``per_client`` workload queries.

    Client ``index`` is ``make_client(index)`` and cycles
    ``_SERVE_WORKLOAD`` from offset ``index``.  ``during`` (if given)
    runs after the threads start and before they are joined.  Returns
    ``(shed, mismatches)``: the typed sheds the clients saw and the SQL
    of every answer that differed from ``expected``.
    """
    import threading

    from .errors import Overloaded

    mismatches: List[str] = []
    shed = [0]
    lock = threading.Lock()

    def loop(index: int) -> None:
        client = make_client(index)
        for i in range(per_client):
            sql = _SERVE_WORKLOAD[(index + i) % len(_SERVE_WORKLOAD)]
            try:
                output = client.query(sql)
            except Overloaded:
                with lock:
                    shed[0] += 1
                continue
            if output != expected[sql]:
                with lock:
                    mismatches.append(sql)

    threads = [
        threading.Thread(target=loop, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    if during is not None:
        during()
    for thread in threads:
        thread.join()
    return shed[0], mismatches


def _cmd_serve(args: argparse.Namespace) -> int:
    from .engine.cluster import ClusterConfig
    from .serve import QueryService, ServeClient

    tables = _tables(args)
    expected = _reference_answers(tables)
    config = ClusterConfig(
        parallelism=args.parallelism,
        seed=args.seed,
        fused_trace_sample=args.fused_trace_sample,
    )
    service = QueryService(
        tables,
        workers=args.workers,
        config=config,
        max_queue=args.max_queue,
        worker_threads=args.threads,
        max_pack=args.max_pack,
        default_timeout=args.timeout,
        verify=args.verify,
        adapt=args.adapt,
        adapt_interval=args.adapt_interval,
    )
    per_client = max(1, args.requests // max(1, args.clients))
    shed, mismatches = _drive_clients(
        lambda index: ServeClient(service, tenant=f"client-{index}"),
        args.clients, per_client, expected,
    )
    service.shutdown(drain=True)
    report = service.report()
    summary = report["summary"]
    print(f"workload : {args.clients} clients x {per_client} requests "
          f"({len(_SERVE_WORKLOAD)} distinct queries)")
    print(f"requests : {summary['requests']} submitted, "
          f"{summary['completed']} completed, {summary['failed']} failed, "
          f"{shed} shed")
    print(f"slots    : {summary['slots_packed']} packed "
          f"({summary['packed_queries']} queries), "
          f"{summary['slots_solo']} solo")
    print(f"caches   : {summary['cache_hits']} result hits, "
          f"{summary['program_cache']['hits']} program hits")
    print(f"traffic  : {summary['streamed']} streamed, "
          f"{summary['forwarded']} forwarded "
          f"({summary['pruning_rate']:.2%} pruned)")
    for tenant, figures in report["latency_ms"].items():
        print(f"latency  : {tenant:12s} n={figures['count']:<4d} "
              f"p50={figures['p50']:.2f}ms p99={figures['p99']:.2f}ms")
    exact = not mismatches
    print(f"results  : {'ALL EXACT' if exact else 'MISMATCH'}; "
          f"drained cleanly (queue={summary['queue_depth']}, "
          f"inflight={summary['inflight']})")
    degraded = summary.get("degraded_signatures", [])
    print(f"health   : {len(report.get('health', []))} signatures tracked, "
          f"{len(degraded)} degraded, "
          f"{len(report.get('events', []))} events retained")
    remediation = summary.get("remediation")
    if remediation is not None:
        outcomes: dict = {}
        for record in remediation["history"]:
            outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
        print(f"adapt    : {len(remediation['history'])} remediation "
              f"records ({', '.join(f'{k}={v}' for k, v in sorted(outcomes.items())) or 'none'})")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"metrics  : written to {args.metrics_out}")
    if args.trace_out is not None:
        count = service.export_trace(args.trace_out)
        print(f"trace    : {count} spans written to {args.trace_out}")
    if args.events_out is not None:
        count = service.export_events(args.events_out)
        print(f"events   : {count} events written to {args.events_out}")
    return 0 if exact else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import FabricTopology, FleetController, TenantQuota
    from .serve import ServeClient

    tables = _tables(args)
    expected = _reference_answers(tables)
    topology = FabricTopology.two_tier(tors=args.tors, spines=args.spines)
    fleet = FleetController(
        tables,
        topology=topology,
        replicas=args.replicas,
        quota=TenantQuota(max_share=0.5),
        max_queue=args.max_queue,
        verify=args.verify,
        seed=args.seed,
        default_timeout=args.timeout,
    )
    per_tenant = max(1, args.requests // max(1, args.tenants))
    shed, mismatches = _drive_clients(
        lambda index: ServeClient(
            fleet, tenant=f"tenant-{index}", retries=args.retries,
            seed=args.seed + index,
        ),
        args.tenants, per_tenant, expected,
        during=fleet.rolling_update if args.rolling_update else None,
    )
    fleet.shutdown(drain=True)
    report = fleet.report()
    summary = report["summary"]
    print(topology.describe()[0])
    print(f"fleet    : {summary['replicas']} replicas over "
          f"{summary['switches']} switches, {args.tenants} tenants x "
          f"{per_tenant} requests")
    print(f"requests : {summary['requests']} submitted, "
          f"{summary['completed']} completed, {summary['failed']} failed, "
          f"{shed} shed at the client")
    routes = summary["routes"]
    print(f"routing  : {routes['locality']} locality, "
          f"{routes['spillover']} spillover, "
          f"{routes['least-loaded']} least-loaded")
    print(f"caches   : {summary['cache_hits']} shared result hits across "
          f"the fleet ({summary['result_cache']['entries']} entries resident)")
    print(f"traffic  : {summary['streamed']} streamed, "
          f"{summary['forwarded']} forwarded "
          f"({summary['pruning_rate']:.2%} pruned)")
    for tenant, figures in report["latency_ms"].items():
        print(f"latency  : {tenant:12s} n={figures['count']:<4d} "
              f"p50={figures['p50']:.2f}ms p99={figures['p99']:.2f}ms")
    for entry in report["replicas"]:
        print(f"replica  : {entry['name']} on {entry['tor']} "
              f"[{entry['state']}] v{entry['tables_version']}")
    print(f"fairness : {summary['starvation_events']} starvation events")
    if args.rolling_update:
        kept = summary.get("last_update_kept_capacity")
        print(f"update   : rolling update completed, capacity retained: {kept}")
    exact = not mismatches
    print(f"results  : {'ALL EXACT' if exact else 'MISMATCH'}; "
          f"fleet drained (occupancy={summary['occupancy']})")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"metrics  : written to {args.metrics_out}")
    if args.events_out is not None:
        count = fleet.export_events(args.events_out)
        print(f"events   : {count} events written to {args.events_out}")
    return 0 if exact else 1


def _cmd_adapt(args: argparse.Namespace) -> int:
    from .adapt.scenario import drift_tables, run_scenario
    from .engine.cluster import ClusterConfig

    sizing = dict(
        pre_runs=args.pre_runs,
        post_runs=args.post_runs,
        pre_working_set=args.working_set,
        post_working_set=args.drift_working_set,
        repeats=args.repeats,
        seed=args.seed,
    )
    config = ClusterConfig(distinct_rows=args.distinct_rows, seed=args.seed)
    capacity = args.distinct_rows * config.distinct_cols
    print(f"scenario : DISTINCT drift, working set {args.working_set} -> "
          f"{args.drift_working_set} (cache capacity {capacity})")
    arms = {}
    for name, adaptive in (("static", False), ("adaptive", True)):
        arms[name] = run_scenario(
            drift_tables(**sizing),
            base_config=config,
            workers=args.workers,
            adaptive=adaptive,
            verify=not args.no_verify,
        )
    for name, arm in arms.items():
        tail = arm.phase_pruning("post-drift", tail=3)
        print(f"{name:9s}: pre-drift pruning {arm.phase_pruning('pre-drift'):.2%}, "
              f"post-drift {arm.phase_pruning('post-drift'):.2%} "
              f"(last 3 runs {tail:.2%})")
    adaptive = arms["adaptive"]
    outcomes = adaptive.outcomes()
    print(f"actions  : " + (", ".join(
        f"{k}={v}" for k, v in sorted(outcomes.items())) or "none"))
    for record in (adaptive.engine.stats()["history"] if adaptive.engine else ()):
        print(f"  - v{record.get('version', '?')} [{record['outcome']}] "
              f"{record['action']}: {record.get('detail', '')}")
    if not args.no_verify:
        exact = adaptive.all_exact and arms["static"].all_exact
        print(f"results  : {'ALL EXACT' if exact else 'MISMATCH'} "
              f"vs the reference executor")
        if not exact:
            return 1
    if args.events_out is not None:
        count = adaptive.events.to_jsonl(args.events_out)
        print(f"events   : {count} events written to {args.events_out}")
    if args.actions_out is not None and adaptive.engine is not None:
        count = adaptive.engine.to_jsonl(args.actions_out)
        print(f"actions  : {count} records written to {args.actions_out}")
    recovered = (
        adaptive.phase_pruning("post-drift", tail=3)
        > arms["static"].phase_pruning("post-drift", tail=3)
    )
    print(f"verdict  : adaptive arm "
          f"{'RECOVERED pruning' if recovered else 'did not beat static'}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import format_trace_tree, load_trace_jsonl

    spans = load_trace_jsonl(args.path)
    lines = format_trace_tree(spans, trace_id=args.trace_id, limit=args.limit)
    if not lines:
        print("no trace-placed spans found")
        return 1
    for line in lines:
        print(line)
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    with open(args.path) as handle:
        report = json.load(handle)
    signatures = report.get("health", [])
    events = report.get("events", [])
    if not signatures and not events:
        print("no health data in this report (not a serve --metrics-out file?)")
        return 1
    for entry in signatures:
        flags = ",".join(entry.get("degraded", [])) or "healthy"
        print(f"signature: {entry['signature']}")
        print(f"  runs={entry['runs']} window={entry['window']} "
              f"p50={entry['latency_p50_ms']:.2f}ms "
              f"p99={entry['latency_p99_ms']:.2f}ms [{flags}]")
        for key in ("pruning_ratio", "pruning_ratio_fast", "pruning_ratio_slow",
                    "bloom_fill", "bloom_fpr", "cache_fill", "cache_hit_rate"):
            if key in entry and entry[key] is not None:
                print(f"  {key:20s} {entry[key]:.4f}")
    if events:
        print(f"events ({len(events)} retained, showing last {args.events}):")
        for event in events[-args.events:]:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(event.get("labels", {}).items())
            )
            print(f"  #{event['seq']} [{event['severity']}] "
                  f"{event['kind']}/{event['source']}: {event['message']}"
                  f"{'  (' + labels + ')' if labels else ''}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .engine.explain import explain

    print(explain(parse(args.sql)))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    print(f"{'algorithm':16s} {'stages':>6s} {'ALUs':>5s} {'SRAM':>12s} {'TCAM':>6s}")
    for fp in table2(TOFINO):
        print(
            f"{fp.label:16s} {fp.stages:6d} {fp.alus:5d} "
            f"{fp.sram_bits / 8 / 1024:10.1f} KB {fp.tcam_entries:6d}"
        )
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    tables = bigdata.tables(bigdata.BigDataScale(rankings_rows=10, uservisits_rows=10))
    for name, table in tables.items():
        print(f"{name}: columns {', '.join(table.column_names)}")
    print("\nqueries (Appendix B):")
    for name, query in bigdata.benchmark_queries().items():
        print(f"  {name}: {query.describe()}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "explain": _cmd_explain,
        "metrics": _cmd_metrics,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
        "adapt": _cmd_adapt,
        "trace": _cmd_trace,
        "health": _cmd_health,
        "table2": _cmd_table2,
        "workloads": _cmd_workloads,
    }
    try:
        return handlers[args.command](args)
    except CheetahError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
