"""Smoke test of the ledger (``pytest benchmarks/ledger -q``; not tier-1).

Runs the gated workloads (and scan_parallel on its own) at a tiny scale,
untraced and traced, through the command the benchmark driver uses, and checks the shape of what
comes out — never a timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import probes  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _ledger(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced pass over every workload."""
    out = {}
    for trace in (0, 1):
        path = str(tmp_path_factory.mktemp("ledger") / f"trace{trace}.json")
        done = _ledger("--seed", "3", "--rounds", "2", "--scale", "0.02",
                       "--trace", str(trace), "--out", path)
        assert done.returncode == 0, done.stdout + done.stderr
        out[trace] = (path, json.loads(done.stdout.strip().splitlines()[-1]))
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(runs, trace, section):
    _, last = runs[trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            reported = last["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
    assert len(last["metrics"]) == len(WORKLOADS) * len(SPEC[section])


def test_every_per_layer_name_has_a_formula():
    named = {m["name"] for m in SPEC["per_layer"]} - {"bench.leaks"}
    assert named == set(layers.FORMULAS)


def test_traced_runs_cover_their_requests_and_leak_nothing(runs):
    path, _ = runs[1]
    with open(path) as handle:
        document = json.load(handle)
    assert {"nproc", "python", "numpy"} <= set(document["host"])
    for run in document["runs"]:
        assert run["metrics"]["bench.trace_coverage_frac"] >= 0.95, run["workload"]
        assert run["metrics"]["bench.leaks"] == 0, run["leaks"]
        assert not [u for u in run["unavailable"] if u.startswith("probe ")]
        spans = os.path.join(HERE, "out", f"{run['workload']}.spans.jsonl")
        with open(spans) as handle:
            first = json.loads(handle.readline())
        assert set(first) == {"id", "name", "start", "end", "parent", "request"}


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="scan_parallel refuses to report on one CPU"
)
def test_the_ungated_parallel_workload_is_traced_too(tmp_path):
    path = str(tmp_path / "parallel.json")
    done = _ledger("--workload", "scan_parallel", "--seed", "3", "--rounds", "2",
                   "--scale", "0.02", "--trace", "1", "--out", path)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(path) as handle:
        (run,) = json.load(handle)["runs"]
    assert run["metrics"]["parallel.run_s"] > 0
    assert run["metrics"]["parallel.run_s.join"] > 0
    assert run["metrics"]["bench.leaks"] == 0, run["leaks"]


def test_quantiles_are_suppressed_below_the_sample_floor():
    assert layers.quantile([], 0.5) is None
    assert layers.quantile([3.0], 0.5) == 3.0
    assert layers.quantile(list(range(99)), 0.9) is None  # 9.9 samples beyond
    assert layers.quantile(list(range(100)), 0.9) == 90
    assert layers.quantile(list(range(199)), 0.95) is None
    assert layers.quantile(list(range(200)), 0.95) == 190


def test_a_vanished_callable_is_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(probes, "PROBES", probes.PROBES + (
        ("core.master_gone", "repro.core.topn", "master_renamed_away", {}),
        ("fleet.gone", "repro.no_such_module", "Thing.method", {}),
    ))
    tracer = probes.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    assert tracer.unavailable == [
        "repro.core.topn:master_renamed_away", "repro.no_such_module:Thing.method",
    ]
    assert not tracer.has("core.") and not tracer.has("fleet.gone")
    assert tracer.has("sketches.", "engine.run")
    trace = layers.Trace(tracer, [], {}, {}, {}, {})
    values, missing = layers.layer_metrics(["core.busy_s", "sketches.busy_s"], trace)
    assert values == {"core.busy_s": None, "sketches.busy_s": 0.0}
    assert missing and missing[0].startswith("core.busy_s")


def test_probes_are_removed_again():
    from repro.engine.cluster import Cluster

    original = Cluster.run
    tracer = probes.Tracer()
    tracer.install()
    assert Cluster.run is not original
    tracer.remove()
    assert Cluster.run is original


def test_compare_of_a_file_with_itself_is_all_ok(runs):
    path, _ = runs[0]
    done = _ledger("--compare", path, path)
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = [line.split()[-1] for line in done.stdout.splitlines()[1:]]
    assert len(verdicts) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert set(verdicts) == {"ok"}


def test_compare_flags_a_regression(runs, tmp_path):
    path, _ = runs[0]
    with open(path) as handle:
        document = json.load(handle)
    for run in document["runs"]:
        run["metrics"]["qps"] *= 0.5
    slower = str(tmp_path / "slower.json")
    with open(slower, "w") as handle:
        json.dump(document, handle)
    done = _ledger("--compare", path, slower)
    assert done.returncode == 1
    assert done.stdout.count("regressed") == len(WORKLOADS)
