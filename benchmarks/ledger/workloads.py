"""The ledger's workloads: inputs, front door, timed window, teardown.

Four are listed in ``BENCHMARK.json`` and gated; ``scan_parallel`` runs only
when named (the README's seed readings say why).

Every workload drives the program only through public entry points
(``parse_sql``, ``Cluster.run``, ``QueryService``/``ServeClient``,
``FleetController``) and records one :class:`Sample` per request; the
runner verifies every sample against ``run_reference`` after the window.
The seed reaches only the table generators and the plan stream — the
program's own ``ClusterConfig.seed`` is never touched.

Sizes were fixed by timing the seed commit on a 2-core host: they are
the largest at which every workload keeps at least a hundred requests
inside one 15 s window.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import repro.engine as engine
from repro import Cluster, ClusterConfig
from repro.fleet import FabricTopology, FleetController
from repro.serve import QueryService, ServeClient
from repro.workloads import bigdata

OPS = ("filter", "distinct", "skyline", "topn", "groupby", "join", "having")
#: Serving plan kinds folded onto those operator names.
OP_OF_KIND = {"uv_filter": "filter", "rk_filter": "filter"}

#: A request with no reply after this long counts as failed.
REPLY_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One request as the load generator saw it (monotonic seconds)."""

    kind: str
    sql: str
    due: float
    done: float
    output: object = None
    #: ``repr`` of the exception a failed request raised (a shed is
    #: ``Overloaded``), else None.
    error: Optional[str] = None
    #: The serve/fleet ticket's phase stamps, when there was a ticket.
    timeline: Optional[Dict[str, float]] = None
    #: Index of the request's root span in the traced run (else -1).
    request_id: int = -1
    #: Which round (or page) of a closed loop sent it.
    round: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


@dataclass
class Window:
    """How long a timed window lasts: a round count, else wall seconds."""

    seconds: float
    rounds: Optional[int] = None

    def done(self, started: float, rounds_done: int) -> float:
        """The share of the window that is over."""
        if self.rounds is not None:
            return rounds_done / self.rounds
        return (time.monotonic() - started) / self.seconds



def _tables(uservisits_rows: int, rankings_rows: int, seed: int, scale: float):
    return bigdata.tables(
        bigdata.BigDataScale(
            rankings_rows=max(200, int(rankings_rows * scale)),
            uservisits_rows=max(400, int(uservisits_rows * scale)),
        ),
        seed,
    )


def seven_queries(tables) -> Dict[str, str]:
    """The filter query plus Appendix-B Q2-Q7 as SQL, keyed by operator.

    Q7's threshold is the median per-group SUM at this scale, so its
    reference answer is never empty.
    """
    visits = tables["UserVisits"]
    sums = np.bincount(
        visits.column("languageCode"), weights=visits.column("adRevenue")
    )
    threshold = float(np.median(sums[sums > 0]))
    return {
        "filter": "SELECT COUNT(*) FROM UserVisits WHERE "
        "(duration > 30 AND adRevenue > 100) OR languageCode < 3",
        "distinct": "SELECT DISTINCT userAgent FROM UserVisits",
        "skyline": "SELECT * FROM Rankings SKYLINE OF pageRank, avgDuration",
        "topn": "SELECT TOP 250 adRevenue FROM UserVisits ORDER BY adRevenue",
        "groupby": "SELECT userAgent, MAX(adRevenue) FROM UserVisits "
        "GROUP BY userAgent",
        "join": "SELECT * FROM UserVisits JOIN Rankings "
        "ON UserVisits.destURL = Rankings.pageURL",
        "having": "SELECT languageCode FROM UserVisits GROUP BY languageCode "
        f"HAVING SUM(adRevenue) > {threshold!r}",
    }


class PlanStream:
    """The serving plan mix: a fixed cycle of kinds, hot and unique plans.

    The cycle is the same for every seed — 40 slots holding each kind in
    proportion to its weight, 11 of them drawn from a four-per-kind hot
    set (they repeat and hit the result cache), the rest carrying a fresh
    constant (they miss it) — so two seeds differ in the table contents
    and in which hot plan a hot slot picks, never in the composition of
    a page.  COUNT and TOP N plans have no separate WHERE and can share a
    packed slot; DISTINCT and GROUP BY carry one and run solo.  JOIN takes
    no constant in this SQL dialect, so it could only ever be a cache hit
    here; the scan workloads cover it.
    """

    #: kind -> (slots per cycle, of which hot).
    MIX = {
        "uv_filter": (12, 3), "rk_filter": (8, 2), "groupby": (8, 2),
        "distinct": (6, 2), "topn": (6, 2),
    }
    HOT = 4

    def __init__(self, seed: int) -> None:
        cycle = [
            (kind, slot < hot)
            for kind, (slots, hot) in self.MIX.items() for slot in range(slots)
        ]
        order = np.random.default_rng(0).permutation(len(cycle))
        self._cycle = [cycle[i] for i in order]
        self._drawn = 0
        self._rng = np.random.default_rng(seed)
        self._next = {kind: self.HOT for kind in self.MIX}

    def _sql(self, kind: str, j: int) -> str:
        if kind == "uv_filter":
            return (
                "SELECT COUNT(*) FROM UserVisits WHERE "
                f"duration > {30 + j} AND adRevenue > {j % 40}"
            )
        if kind == "rk_filter":
            return f"SELECT COUNT(*) FROM Rankings WHERE pageRank > {100 + 3 * j}"
        if kind == "groupby":
            return (
                "SELECT userAgent, MAX(adRevenue) FROM UserVisits "
                f"WHERE duration > {j} GROUP BY userAgent"
            )
        if kind == "distinct":
            return f"SELECT DISTINCT userAgent FROM UserVisits WHERE duration > {j}"
        return f"SELECT TOP {10 + j} adRevenue FROM UserVisits ORDER BY adRevenue"

    def draw(self) -> "tuple[str, str]":
        kind, hot = self._cycle[self._drawn % len(self._cycle)]
        self._drawn += 1
        if hot:
            return kind, self._sql(kind, int(self._rng.integers(self.HOT)))
        j = self._next[kind]
        self._next[kind] = j + 1
        return kind, self._sql(kind, j)


def _submit(client, sql: str):
    """The ticket, or the exception admission raised instead of one."""
    try:
        return client.submit(sql)
    except Exception as error:  # a typed shed; _collect counts it as failed
        return error


def _collect(kind: str, sql: str, due: float, ticket, request_id: int) -> Sample:
    """Wait for a serve/fleet ticket; latency ends at its completion stamp.

    ``ticket`` is the exception itself when admission shed the request."""
    try:
        if isinstance(ticket, Exception):
            raise ticket
        output = ticket.result(REPLY_TIMEOUT_S)
    except Exception as error:  # a shed, a failed slot or no reply: all failures
        return Sample(
            kind, sql, due, time.monotonic(), error=repr(error), request_id=request_id
        )
    return Sample(
        kind, sql, due, ticket.timeline["completed"], output,
        timeline=dict(ticket.timeline), request_id=request_id,
    )


class Workload:
    """Base: one instance per run; ``setup`` may be called repeatedly."""

    name = ""
    why = ""
    #: Requests per round (the unit ``--rounds`` counts).
    round_size = 0
    #: Run the workload process on one CPU.  The serving workloads keep
    #: two to four executor threads busy behind one interpreter lock; on
    #: one CPU serve_burst runs as fast as on two at the seed commit (p50
    #: 3.9 ms against 4.9 ms for the UserVisits COUNT), but on two the
    #: same process sometimes spends a whole run fighting over the lock
    #: across cores (that COUNT's p50 33-56 ms, qps down a quarter).
    one_cpu = False

    def setup(self, seed: int, scale: float) -> None:
        raise NotImplementedError

    def window(self, window: Window, tag: Callable) -> List[Sample]:
        """Run one timed window: rounds back to back until it closes.

        ``tag()`` is a context manager around each send that yields the
        request's id; the traced run opens the request's root span there,
        untraced it is :func:`untagged`."""
        samples: List[Sample] = []
        started, rounds = time.monotonic(), 0
        while (done := window.done(started, rounds)) < 1.0:
            self._progress(done)
            batch = self._round(tag)
            for sample in batch:
                sample.round = rounds
            samples += batch
            rounds += 1
        return samples

    def _progress(self, done: float) -> None:
        """Called before each round with the share of the window done."""

    def _round(self, tag: Callable) -> List[Sample]:
        """Send one round of a closed loop and wait for its answers."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def tables_for(self, sample: Sample) -> Sequence[dict]:
        """Table maps on which ``sample``'s answer may have been computed."""
        return (self.tables,)

    def counters(self) -> Dict[str, float]:
        """Cumulative counts read off the front door's public
        ``report()``/``stats()`` accessors; the runner takes deltas."""
        raise NotImplementedError


class ScanWorkload(Workload):
    """Closed loop, one client: rounds of the seven queries on a Cluster."""

    round_size = len(OPS)

    def __init__(self, name, why, rows, config: dict, needs_cpus: int = 1):
        self.name, self.why = name, why
        self._rows, self._config, self.needs_cpus = rows, config, needs_cpus

    def setup(self, seed: int, scale: float) -> None:
        if (os.cpu_count() or 1) < self.needs_cpus:
            raise RuntimeError(
                f"{self.name} needs {self.needs_cpus} CPUs, host has "
                f"{os.cpu_count()}: a parallel figure from fewer is not reported"
            )
        self.tables = _tables(*self._rows, seed, scale)
        self.sqls = seven_queries(self.tables)
        self.cluster = Cluster(5, ClusterConfig(**self._config))
        self._volumes = {"streamed": 0.0, "forwarded": 0.0}
        self._round(untagged)

    def _round(self, tag) -> List[Sample]:
        samples = []
        for op, sql in self.sqls.items():
            due = time.monotonic()
            with tag() as request_id:
                result = self.cluster.run(engine.parse_sql(sql), self.tables)
            self._volumes["streamed"] += result.total_streamed
            self._volumes["forwarded"] += result.total_forwarded
            samples.append(
                Sample(op, sql, due, time.monotonic(), result.output,
                       request_id=request_id)
            )
        return samples

    def counters(self) -> Dict[str, float]:
        return dict(self._volumes)


def _service_counters(service) -> Dict[str, float]:
    """One QueryService's cumulative tallies, from ``report()``."""
    summary = service.report()["summary"]
    out = {
        key: float(summary[key])
        for key in (
            "requests", "cache_hits", "cache_misses", "slots_packed",
            "slots_solo", "packed_queries", "streamed", "forwarded",
        )
    }
    out["serve_streamed"] = out["streamed"]
    out["program_hits"] = float(summary["program_cache"]["hits"])
    out["program_misses"] = float(summary["program_cache"]["misses"])
    resident = summary.get("resident") or {}
    out["resident_exports"] = float(resident.get("exports", 0))
    out["resident_reuses"] = float(resident.get("reuses", 0))
    out["spans_recorded"] = float(len(service.registry.spans))
    out["spans_dropped"] = float(
        service.registry.counter_values().get("spans_dropped_total{}", 0)
    )
    return out


class ServeWorkload(Workload):
    """Closed loop, one client, one page of eight requests in flight."""

    name = "serve_burst"
    why = (
        "small tables behind QueryService: admission, slot packing, the "
        "program/result caches and the thread hand-off are a visible share "
        "of each request; gating each page makes slot formation repeat"
    )
    round_size = 8
    one_cpu = True

    def setup(self, seed: int, scale: float) -> None:
        self.tables = _tables(8_000, 4_000, seed, scale)
        self.service = QueryService(
            self.tables,
            workers=5,
            config=ClusterConfig(batch_size=4096),
            max_queue=256,
            worker_threads=2,
        )
        self.client = ServeClient(self.service)
        self.plans = PlanStream(seed)
        self._round(untagged)

    def _round(self, tag) -> List[Sample]:
        plans = [self.plans.draw() for _ in range(self.round_size)]
        self.service.pause()
        pending = []
        for kind, sql in plans:
            due = time.monotonic()
            with tag() as request_id:
                pending.append((kind, sql, due, _submit(self.client, sql), request_id))
        self.service.resume()
        return [_collect(*request) for request in pending]

    def teardown(self) -> None:
        self.service.shutdown()

    def counters(self) -> Dict[str, float]:
        return _service_counters(self.service)


class FleetWorkload(Workload):
    """Closed loop, one client, six requests in flight, two rolling updates."""

    name = "fleet_rolling"
    why = (
        "routing, tenancy and drain/fence/swap beside the reads, on the "
        "scalar dataplane the fleet builds today: a cache or residency "
        "change that speeds reads but slows table swaps shows here"
    )
    round_size = 6
    one_cpu = True
    TENANTS = ("t0", "t1", "t2")

    def setup(self, seed: int, scale: float) -> None:
        self.first = _tables(2_000, 1_000, seed, scale)
        self.second = _tables(2_000, 1_000, seed + 1_000_003, scale)
        self.tables = self.first
        self.fleet = FleetController(
            self.first,
            topology=FabricTopology.two_tier(tors=2, spines=1),
            replicas=2,
            max_queue=256,
        )
        self.clients = [ServeClient(self.fleet, tenant=t) for t in self.TENANTS]
        self.plans = PlanStream(seed)
        #: (start, end, tables) of each rolling update, monotonic seconds.
        self.updates: List[tuple] = []
        self._round(untagged)

    def _round(self, tag) -> List[Sample]:
        pending = []
        for i in range(self.round_size):
            kind, sql = self.plans.draw()
            due = time.monotonic()
            with tag() as request_id:
                ticket = _submit(self.clients[i % len(self.clients)], sql)
            pending.append((kind, sql, due, ticket, request_id))
        return [_collect(*request) for request in pending]

    def window(self, window: Window, tag) -> List[Sample]:
        """The closed loop, with a second thread swapping the tables in a
        rolling update when a third and two thirds of the window are done."""
        self._planned = [(1 / 3, self.second), (2 / 3, self.first)]
        self._swaps: "queue.Queue" = queue.Queue()

        def update() -> None:
            while (tables := self._swaps.get()) is not None:
                begin = time.monotonic()
                self.fleet.rolling_update(tables)
                self.updates.append((begin, time.monotonic(), tables))

        updater = threading.Thread(target=update, name="ledger-updater")
        updater.start()
        try:
            return super().window(window, tag)
        finally:
            self._swaps.put(None)
            updater.join()

    def _progress(self, done: float) -> None:
        if self._planned and done >= self._planned[0][0]:
            self._swaps.put(self._planned.pop(0)[1])

    def tables_for(self, sample: Sample) -> Sequence[dict]:
        """Old or new tables inside an update window, the new ones after.

        An epoch is live from the start of the update that installs it to
        the end of the update that replaces it; a request may have been
        answered on any epoch live between its send and its completion.
        """
        forever = float("inf")
        live_from, tables, out = -forever, self.first, []
        for begin, end, installed in [*self.updates, (forever, forever, None)]:
            if live_from <= sample.done and sample.due <= end:
                out.append(tables)
            live_from, tables = begin, installed
        return out

    def teardown(self) -> None:
        self.fleet.shutdown()

    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for replica in self.fleet.replicas:
            for key, value in _service_counters(replica.service).items():
                out[key] = out.get(key, 0.0) + value
        for reason, count in self.fleet.router.stats().items():
            out["routes_" + reason.replace("-", "_")] = float(count)
        values = self.fleet.registry.counter_values()
        out["reroutes"] = float(values.get("fleet_overload_reroutes_total{}", 0))
        out["starvation_events"] = float(
            sum(r.fairness.snapshot()["starvation_events"] for r in self.fleet.replicas)
        )
        return out


def untagged():
    """The untraced run's request tag: a context that yields no id."""
    return contextlib.nullcontext(-1)


def build(name: str) -> Workload:
    """A fresh workload object by name (KeyError names the choices)."""
    return _FACTORIES[name]()


_SCAN_WHY = {
    "scan_large": (
        "large tables, batch dataplane: the sketch kernels and process_batch "
        "do nearly all the work; parallel, serve and fleet do none"
    ),
    "scan_small": (
        "same queries, out-of-box ClusterConfig() and small tables: the scalar "
        "per-entry loop and fixed per-query cost dominate, so a kernel change "
        "predicts no movement here"
    ),
    "scan_parallel": (
        "scan_large with parallelism=2: shard planning, shared-memory export "
        "and pool dispatch replace the in-process partition/stream"
    ),
}

_FACTORIES = {
    "scan_large": lambda: ScanWorkload(
        "scan_large", _SCAN_WHY["scan_large"], (200_000, 10_000),
        {"batch_size": 65536},
    ),
    "scan_small": lambda: ScanWorkload(
        "scan_small", _SCAN_WHY["scan_small"], (16_000, 8_000), {},
    ),
    "scan_parallel": lambda: ScanWorkload(
        "scan_parallel", _SCAN_WHY["scan_parallel"], (200_000, 10_000),
        {"batch_size": 65536, "parallelism": 2}, needs_cpus=2,
    ),
    "serve_burst": ServeWorkload,
    "fleet_rolling": FleetWorkload,
}

NAMES = tuple(_FACTORIES)
