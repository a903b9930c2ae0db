"""``scripts/check_schema.py``: every check reports its malformed input.

Each case writes one artifact whose shape picks the check, breaks one
field, and asserts that the checker names the problem and fails.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

_SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
sys.path.insert(0, _SCRIPTS)
try:
    import check_schema
finally:
    sys.path.remove(_SCRIPTS)

REGISTRY = {
    "counters": [{"name": "c_total", "labels": {}, "value": 3}],
    "gauges": [{"name": "g", "labels": {"k": "v"}, "value": 0.5}],
    "histograms": [{
        "name": "h", "labels": {}, "count": 1, "sum": 0.1,
        "buckets": [[0.5, 1], ["+Inf", 1]],
    }],
    "spans": [{"name": "stream", "seconds": 0.01, "labels": {}}],
}
RUN_REPORT = {
    "query": "SELECT DISTINCT a FROM T", "op_kind": "distinct", "workers": 2,
    "totals": {"streamed": 10, "forwarded": 4, "pruned": 6, "pruning_rate": 0.6},
    "phases": [{"name": "stream", "streamed": 10, "forwarded": 4}],
    "metrics": REGISTRY,
}
EVENTS = [
    {"seq": 1, "kind": "lifecycle", "source": "serve", "message": "started",
     "severity": "info", "unix_time": 1.0, "labels": {}},
    {"seq": 2, "kind": "shed", "source": "serve", "message": "queue full",
     "severity": "warning", "unix_time": 2.0,
     "labels": {"reason": "queue-full", "tenant": "t0"}},
]
SERVE_REPORT = {
    "benchmark": "serving", "artifact": "query-service", "summary": {},
    "metrics": REGISTRY, "events": EVENTS,
}
SPANS = [
    {"name": "request", "seconds": 0.02, "labels": {}, "trace_id": "t1",
     "span_id": "s1", "parent_id": None},
    {"name": "stream", "seconds": 0.01, "labels": {}, "trace_id": "t1",
     "span_id": "s2", "parent_id": "s1"},
]


def _check(tmp_path, name, payload):
    path = tmp_path / name
    if name.endswith(".jsonl"):
        path.write_text("".join(json.dumps(row) + "\n" for row in payload))
    else:
        path.write_text(json.dumps(payload))
    problems = []
    check_schema.check_file(str(path), problems)
    return problems


@pytest.mark.parametrize(
    "name, payload",
    [
        ("run.metrics.json", RUN_REPORT),
        ("bench.metrics.json", {"benchmark": "b", "artifact": "b.txt",
                                "metrics": REGISTRY}),
        ("serve.metrics.json", SERVE_REPORT),
        ("serve.events.jsonl", EVENTS),
        ("serve.trace.jsonl", SPANS),
    ],
    ids=["run-report", "bench-envelope", "serve-report", "events", "trace"],
)
def test_well_formed_artifacts_pass(tmp_path, name, payload):
    assert _check(tmp_path, name, payload) == []


def _negative_counter(doc):
    doc["metrics"]["counters"][0]["value"] = -1


def _missing_section(doc):
    del doc["metrics"]["histograms"]


def _non_monotone_seq(events):
    events[1]["seq"] = 1


def _unknown_severity(events):
    events[0]["severity"] = "fatal"


def _missing_label(events):
    del events[1]["labels"]["tenant"]


def _span_without_seconds(spans):
    del spans[1]["seconds"]


@pytest.mark.parametrize(
    "name, payload, break_it, expected",
    [
        ("run.metrics.json", RUN_REPORT, _negative_counter, "malformed counter"),
        ("run.metrics.json", RUN_REPORT, _missing_section,
         "missing registry section 'histograms'"),
        ("serve.events.jsonl", EVENTS, _non_monotone_seq, "not greater than"),
        ("serve.events.jsonl", EVENTS, _unknown_severity, "'severity' 'fatal'"),
        ("serve.events.jsonl", EVENTS, _missing_label,
         "missing required label 'tenant'"),
        ("serve.trace.jsonl", SPANS, _span_without_seconds,
         "span 'seconds' must be numeric"),
    ],
    ids=[
        "negative-counter", "missing-registry-section", "non-monotone-seq",
        "unknown-severity", "missing-required-label", "span-without-seconds",
    ],
)
def test_each_check_reports_its_malformed_input(
    tmp_path, name, payload, break_it, expected
):
    broken = copy.deepcopy(payload)
    break_it(broken)
    problems = _check(tmp_path, name, broken)
    assert any(expected in problem for problem in problems), problems
    assert check_schema.main([str(tmp_path / name)]) == 1


def test_serve_report_events_are_checked(tmp_path):
    report = copy.deepcopy(SERVE_REPORT)
    _unknown_severity(report["events"])
    problems = _check(tmp_path, "serve.metrics.json", report)
    assert any("events[0]" in problem for problem in problems), problems
    del report["events"]
    problems = _check(tmp_path, "serve.metrics.json", report)
    assert any("no top-level 'events' list" in p for p in problems), problems
