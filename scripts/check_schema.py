#!/usr/bin/env python
"""Validate the repo's JSON and JSONL artifacts against their shapes.

Each file's check is picked from the file's shape (stdlib-only
validation — no jsonschema dependency):

1. **Run reports** (``repro query --metrics-out``): a JSON object with a
   ``query`` key and ``op_kind``/``workers``/``totals``/``phases``/
   ``metrics``, where ``metrics`` is a ``MetricsRegistry.to_dict()``
   payload.
2. **Serve reports** (``repro serve|fleet --metrics-out``): a benchmark
   envelope (below) that also carries a top-level ``events`` list.
3. **Benchmark envelopes** (``benchmarks/_harness.emit``):
   ``{"benchmark": ..., "artifact": ..., "metrics": {...}}`` where
   ``metrics`` is either a registry payload or a free-form figures dict.
4. **Event JSONL** (``EventLog.to_jsonl``, ``--events-out``): one event
   object per line.
5. **Trace JSONL** (``--trace-out``): one span object per line.

Every event object must carry an ``int`` ``seq`` (positive; strictly
increasing within one artifact), string ``kind``/``source``/``message``,
a ``severity`` drawn from the known set, a numeric ``unix_time``, and a
``labels`` object mapping strings to strings, including the labels its
kind requires.

Usage::

    python scripts/check_schema.py benchmarks/results/*.metrics.json \\
        serve.events.jsonl serve.trace.jsonl

Exits non-zero (printing one line per problem) if any file fails.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

#: Mirror of repro.obs.events.SEVERITIES (kept dependency-free).
SEVERITIES = ("info", "warning", "error", "critical")

#: Labels each well-known event kind must carry (the machine-readable
#: surface the adaptive-runtime and fleet artifacts are consumed
#: through — ``repro health`` and the CI gates key on these).
REQUIRED_LABELS = {
    "remediation-action": ("signature", "action"),
    "remediation-rollback": ("signature", "action"),
    "remediation-frozen": ("signature",),
    "shed": ("reason", "tenant"),
    "fleet-spillover": ("tenant", "table", "origin", "target"),
    "tenant-starvation": ("tenant", "rounds"),
    "rolling-update": ("replica", "phase"),
}

#: ``artifact`` names of the service reports that must carry ``events``.
SERVE_ARTIFACTS = ("query-service", "fleet-controller")


def _is_labels(obj) -> bool:
    return isinstance(obj, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in obj.items()
    )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# -- registry payloads, run reports, envelopes --------------------------------


def check_registry_payload(payload, where: str, problems: List[str]) -> None:
    """Validate a MetricsRegistry.to_dict() dict in place."""
    if not isinstance(payload, dict):
        problems.append(f"{where}: registry payload is not an object")
        return
    for section in ("counters", "gauges", "histograms", "spans"):
        if section not in payload:
            problems.append(f"{where}: missing registry section {section!r}")
        elif not isinstance(payload[section], list):
            problems.append(f"{where}: registry section {section!r} is not a list")
    for entry in payload.get("counters", []):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and _is_labels(entry.get("labels"))
            and isinstance(entry.get("value"), int)
            and entry["value"] >= 0
        ):
            problems.append(f"{where}: malformed counter entry {entry!r}")
    for entry in payload.get("gauges", []):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and _is_labels(entry.get("labels"))
            and isinstance(entry.get("value"), (int, float))
        ):
            problems.append(f"{where}: malformed gauge entry {entry!r}")
    for entry in payload.get("histograms", []):
        ok = (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and _is_labels(entry.get("labels"))
            and isinstance(entry.get("buckets"), list)
            and isinstance(entry.get("count"), int)
            and isinstance(entry.get("sum"), (int, float))
        )
        if ok:
            ok = all(
                isinstance(pair, list) and len(pair) == 2 and isinstance(pair[1], int)
                for pair in entry["buckets"]
            ) and bool(entry["buckets"]) and entry["buckets"][-1][0] == "+Inf"
        if not ok:
            problems.append(
                f"{where}: malformed histogram entry "
                f"{entry.get('name') if isinstance(entry, dict) else entry!r}"
            )
    for entry in payload.get("spans", []):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("seconds"), (int, float))
            and _is_labels(entry.get("labels"))
        ):
            problems.append(f"{where}: malformed span entry {entry!r}")


def check_run_report(doc, where: str, problems: List[str]) -> None:
    """Validate a ``repro query --metrics-out`` run report."""
    for key in ("query", "op_kind", "workers", "totals", "phases", "metrics"):
        if key not in doc:
            problems.append(f"{where}: run report missing key {key!r}")
    totals = doc.get("totals")
    if isinstance(totals, dict):
        for key in ("streamed", "forwarded", "pruned", "pruning_rate"):
            if key not in totals:
                problems.append(f"{where}: totals missing {key!r}")
    else:
        problems.append(f"{where}: totals is not an object")
    phases = doc.get("phases")
    if isinstance(phases, list):
        for phase in phases:
            if not (
                isinstance(phase, dict)
                and isinstance(phase.get("name"), str)
                and isinstance(phase.get("streamed"), int)
                and isinstance(phase.get("forwarded"), int)
            ):
                problems.append(f"{where}: malformed phase entry {phase!r}")
    else:
        problems.append(f"{where}: phases is not a list")
    metrics = doc.get("metrics")
    if metrics:  # an empty dict is legal (metrics disabled)
        check_registry_payload(metrics, where, problems)


def check_bench_envelope(doc, where: str, problems: List[str]) -> None:
    """Validate a ``{"benchmark", "artifact", "metrics"}`` envelope."""
    if not isinstance(doc.get("benchmark"), str):
        problems.append(f"{where}: envelope missing string 'benchmark'")
    if not isinstance(doc.get("artifact"), str):
        problems.append(f"{where}: envelope missing string 'artifact'")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        problems.append(f"{where}: envelope 'metrics' is not an object")
    elif "counters" in metrics:  # registry payload; otherwise free-form figures
        check_registry_payload(metrics, where, problems)


# -- events and spans ---------------------------------------------------------


def check_event(event, where: str, problems: List[str],
                prev_seq: Optional[int] = None) -> Optional[int]:
    """Validate one event object; return its seq for monotonicity checks."""
    if not isinstance(event, dict):
        problems.append(f"{where}: event is not an object")
        return prev_seq
    seq = event.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq <= 0:
        problems.append(f"{where}: 'seq' must be a positive int, got {seq!r}")
        seq = None
    elif prev_seq is not None and seq <= prev_seq:
        problems.append(
            f"{where}: 'seq' {seq} not greater than previous {prev_seq}"
        )
    for key in ("kind", "source", "message"):
        if not isinstance(event.get(key), str) or not event.get(key):
            problems.append(
                f"{where}: {key!r} must be a non-empty string, "
                f"got {event.get(key)!r}"
            )
    severity = event.get("severity")
    if severity not in SEVERITIES:
        problems.append(
            f"{where}: 'severity' {severity!r} not in {SEVERITIES}"
        )
    if not _is_number(event.get("unix_time")):
        problems.append(
            f"{where}: 'unix_time' must be numeric, got {event.get('unix_time')!r}"
        )
    labels = event.get("labels")
    if not _is_labels(labels):
        problems.append(f"{where}: 'labels' must map strings to strings")
    else:
        for required in REQUIRED_LABELS.get(event.get("kind"), ()):
            if not labels.get(required):
                problems.append(
                    f"{where}: {event['kind']!r} event missing required "
                    f"label {required!r}"
                )
    return seq if seq is not None else prev_seq


def check_events(events, problems: List[str]) -> None:
    """Validate one artifact's ``(where, event)`` pairs, in ``seq`` order."""
    prev_seq: Optional[int] = None
    for where, event in events:
        prev_seq = check_event(event, where, problems, prev_seq)


def check_span(span, where: str, problems: List[str]) -> None:
    """Validate one span object from a trace JSONL export."""
    if not isinstance(span, dict):
        problems.append(f"{where}: span is not an object")
        return
    if not isinstance(span.get("name"), str) or not span.get("name"):
        problems.append(f"{where}: span 'name' must be a non-empty string")
    if not _is_number(span.get("seconds")):
        problems.append(f"{where}: span 'seconds' must be numeric")
    if not _is_labels(span.get("labels")):
        problems.append(f"{where}: span 'labels' must map strings to strings")
    # Trace exports only ever contain trace-placed spans.
    for key in ("trace_id", "span_id"):
        if not isinstance(span.get(key), str) or not span.get(key):
            problems.append(
                f"{where}: span {key!r} must be a non-empty string"
            )
    parent = span.get("parent_id")
    if parent is not None and not isinstance(parent, str):
        problems.append(f"{where}: span 'parent_id' must be a string or null")


# -- dispatch by shape --------------------------------------------------------


def check_document(doc, where: str, problems: List[str]) -> str:
    """Validate one JSON document by its shape; return the shape's name."""
    if not isinstance(doc, dict):
        problems.append(f"{where}: top level is not an object")
        return "unknown"
    if "events" in doc or doc.get("artifact") in SERVE_ARTIFACTS:
        check_bench_envelope(doc, where, problems)
        events = doc.get("events")
        if not isinstance(events, list):
            problems.append(f"{where}: no top-level 'events' list")
        else:
            check_events(
                ((f"{where}: events[{i}]", e) for i, e in enumerate(events)),
                problems,
            )
        return "serve report"
    if "benchmark" in doc:
        check_bench_envelope(doc, where, problems)
        return "bench envelope"
    if "query" in doc:
        check_run_report(doc, where, problems)
        return "run report"
    problems.append(
        f"{where}: neither a benchmark envelope ('benchmark' key), a serve "
        f"report ('events' key) nor a run report ('query' key)"
    )
    return "unknown"


def check_lines(rows, where: str, problems: List[str]) -> str:
    """Validate parsed JSONL rows ``(line number, object)`` as events or
    spans; return the shape's name."""
    # Spans carry trace ids and seconds; events carry seq/kind.  Classify
    # off the first row so a mixed file is flagged rather than half-checked.
    first = rows[0][1]
    if isinstance(first, dict) and ("seconds" in first or "span_id" in first):
        for number, row in rows:
            check_span(row, f"{where}:{number}", problems)
        return "trace JSONL"
    check_events(((f"{where}:{number}", row) for number, row in rows), problems)
    return "event JSONL"


def check_file(path: str, problems: List[str]) -> None:
    """Validate one artifact file, appending problems in place."""
    before = len(problems)
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        problems.append(f"{path}: unreadable ({error})")
        return
    if path.endswith(".jsonl"):
        rows = []
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rows.append((number, json.loads(line)))
            except ValueError as error:
                problems.append(f"{path}:{number}: bad JSON ({error})")
        if not rows:
            problems.append(f"{path}: empty artifact (no JSON lines)")
            return
        shape = check_lines(rows, path, problems)
    else:
        try:
            doc = json.loads(text)
        except ValueError as error:
            problems.append(f"{path}: unreadable ({error})")
            return
        shape = check_document(doc, path, problems)
    if len(problems) == before:
        print(f"{path}: {shape} ok")


def main(argv: List[str]) -> int:
    """Validate every path given; return 0 only if all pass."""
    if not argv:
        print("usage: check_schema.py FILE.json|FILE.jsonl [...]", file=sys.stderr)
        return 2
    problems: List[str] = []
    for path in argv:
        check_file(path, problems)
    for problem in problems:
        print(f"SCHEMA: {problem}", file=sys.stderr)
    if not problems:
        print(f"schema ok: {len(argv)} file(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
