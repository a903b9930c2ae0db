#!/usr/bin/env python3
"""The performance ledger: one command, every metric, every answer checked.

    python3 benchmarks/ledger/run.py --workload scan_small --seed 1 \\
        --seconds 15 --trace 0 [--rounds N] [--scale F] [--out FILE]
    python3 benchmarks/ledger/run.py --compare A.json B.json

Each workload runs in a fresh child process (so peak memory, leaked
shared-memory segments and surviving processes are the workload's own);
this process supervises it, counts what it left behind, prints every
metric by name with unit, sample count and bound, and ends with one JSON
line.  ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` an untraced window followed by one with the timing probes
of ``probes.py`` installed, and reports the per-layer metrics.  A wrong
answer, a failed request or a leak makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

#: Set-up (tables, front door, warm-up round) is repeated this often in
#: a run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: The child is killed, and the run fails, after this long.
CHILD_TIMEOUT_S = 170.0
#: How long processes of an exited child may take to go away by themselves.
EXIT_GRACE_S = 5.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- the workload process ------------------------------------------------------


def _peak_rss_mb() -> float:
    """Peak resident size of this process plus its live children, MiB."""
    import multiprocessing

    total_kb = 0
    for pid in [os.getpid()] + [c.pid for c in multiprocessing.active_children()]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    if not total_kb:  # no /proc: the process's own high-water mark
        import resource

        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def _verify(workload, samples):
    """Compare every answer with ``run_reference``; time the references."""
    from repro.engine import parse_sql, run_reference

    from workloads import OP_OF_KIND

    started = time.monotonic()
    expected, reference_s, ok = {}, {}, []
    for sample in samples:
        good = False
        if sample.error is None:
            for tables in workload.tables_for(sample):
                key = (sample.sql, id(tables))
                if key not in expected:
                    begin = time.monotonic()
                    expected[key] = run_reference(parse_sql(sample.sql), tables)
                    op = OP_OF_KIND.get(sample.kind, sample.kind)
                    reference_s[op] = reference_s.get(op, 0.0) + time.monotonic() - begin
                if sample.output == expected[key]:
                    good = True
                    break
        ok.append(good)
    return ok, reference_s, time.monotonic() - started


def _throughput(samples, ok) -> float:
    """Verified-correct answers per second: the median over the loop's
    rounds of the round's own rate, so that one stalled round does not
    move the figure."""
    rounds = {}
    for sample, fine in zip(samples, ok):
        first, last, good = rounds.get(sample.round, (sample.due, sample.done, 0))
        rounds[sample.round] = (
            min(first, sample.due), max(last, sample.done), good + fine,
        )
    return statistics.median(
        good / (last - first) for first, last, good in rounds.values()
    )


def _delta(after: dict, before: dict) -> dict:
    """Counter deltas over a window.  Resident-store tallies restart at
    every table swap, so they are read as they stand at the end."""
    return {
        key: value if key.startswith("resident_") else value - before.get(key, 0.0)
        for key, value in after.items()
    }


def _end_to_end(samples, ok, setups, counters) -> dict:
    """The six end-to-end metrics of one untraced window."""
    from layers import quantile, ratio

    good = [s for s, fine in zip(samples, ok) if fine]
    latencies = [s.latency_ms for s in good]
    metrics = {
        "setup_s": statistics.median(setups),
        "qps": _throughput(samples, ok),
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_p90_ms": quantile(latencies, 0.9),
        "peak_rss_mb": _peak_rss_mb(),
        "forwarded_frac": ratio(counters["forwarded"], counters["streamed"]),
    }
    notes = []
    if metrics["latency_p90_ms"] is None and latencies:
        # The contract wants a number from every run; the sizes keep a
        # healthy run above the floor, so say so when one falls below.
        metrics["latency_p90_ms"] = quantile(latencies, 0.9, beyond=0)
        notes.append(
            f"latency_p90_ms: only {len(latencies)} samples, fewer than ten beyond"
        )
    by_kind = {}
    for sample in good:
        by_kind.setdefault(sample.kind, []).append(sample.latency_ms)
    counts = {"setup_s": len(setups), "peak_rss_mb": 1}
    return {
        "metrics": metrics,
        "n": {name: counts.get(name, len(good)) for name in metrics},
        "unavailable": notes,
        "detail": {"latency_ms_p50_by_kind": {
            kind: statistics.median(values) for kind, values in sorted(by_kind.items())
        }},
    }


def run_child(args) -> dict:
    from layers import Trace, cache_stats, layer_metrics, ratio
    from probes import Tracer
    from workloads import Window, build, untagged

    workload = build(args.workload)
    if workload.one_cpu and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        begin = time.monotonic()
        workload.setup(args.seed, args.scale)
        setups.append(time.monotonic() - begin)
    window = Window(args.seconds, args.rounds)

    before = workload.counters()
    samples = workload.window(window, untagged)
    counters = _delta(workload.counters(), before)
    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        caches_before, before = cache_stats(), workload.counters()
        try:
            traced = workload.window(window, tracer.request)
        finally:
            tracer.remove()
        begin = time.monotonic()
        traced_counters = _delta(workload.counters(), before)
        report_s = time.monotonic() - begin
        caches_after = cache_stats()
    workload.teardown()

    ok, reference_s, verify_s = _verify(workload, samples + traced)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": args.rounds, "scale": args.scale, "trace": args.trace,
        "attempted": len(ok), "failed": ok.count(False),
        "errors": sorted({s.error for s in samples + traced if s.error})[:5],
        "threads_left": sorted(
            t.name for t in threading.enumerate()
            if t is not threading.main_thread() and not t.daemon
            # The program's cached shard pool keeps its stdlib manager
            # thread until its own atexit hook; were that to fail, the
            # child would not exit and the supervisor counts it instead.
            and type(t).__module__ != "concurrent.futures.process"
        ),
    }
    if not args.trace:
        result.update(_end_to_end(samples, ok, setups, counters))
        return result

    tracer.attach(traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(
        os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl"),
        min(s.due for s in traced),
    )
    # Mean latency, not the median: a scan's latencies have seven modes
    # and its median jumps between two of them from one window to the next.
    plain_mean, traced_mean = (
        statistics.fmean([s.latency_ms for s in batch if s.error is None] or [0.0])
        for batch in (samples, traced)
    )
    trace = Trace(
        tracer, traced, traced_counters, caches_before, caches_after,
        {
            "shed": sum(1 for s in traced if s.error and "Overloaded" in s.error),
            "report_s": report_s, "sent": len(traced), "verify_s": verify_s,
            "reference_s": reference_s,
            "updates": getattr(workload, "updates", ()),
            "probe_overhead_frac": ratio(traced_mean - plain_mean, plain_mean),
        },
    )
    names = [m["name"] for m in load_spec()["per_layer"] if m["name"] != "bench.leaks"]
    result["metrics"], missing = layer_metrics(names, trace)
    result["unavailable"] = [f"probe {t}" for t in tracer.unavailable] + missing
    result["n"] = {name: len(traced) for name in names}
    return result


# -- the supervisor ------------------------------------------------------------


def _group_members(pgid: int) -> list:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def supervise(name: str, args) -> dict:
    """Run one workload in a child; add what it left behind as leaks."""
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f".result-{os.getpid()}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--child", result_path,
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", str(args.scale),
    ]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    shm_before = _shm_names()
    # Python salts str hashes per process, and at the seed commit that salt
    # alone moves serve_burst by a fifth from one process to the next; the
    # ledger pins it so that two runs differ only in what is being measured.
    child = subprocess.Popen(
        command, cwd=ROOT, start_new_session=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    try:
        code = child.wait(CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    deadline = time.monotonic() + (EXIT_GRACE_S if code is not None else 0.0)
    while (survivors := _group_members(child.pid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    if survivors:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        while _group_members(child.pid):
            time.sleep(0.05)
    leaked_shm = sorted(_shm_names() - shm_before)
    for segment in leaked_shm:
        try:
            os.unlink(os.path.join("/dev/shm", segment))
        except OSError:
            pass
    try:
        with open(result_path) as handle:
            result = json.load(handle)
        os.unlink(result_path)
    except (OSError, ValueError):
        result = None
    if code != 0 or result is None:
        print(f"ledger: workload {name} did not finish (exit code {code})", file=sys.stderr)
        sys.exit(code or 1)
    result["leaks"] = {
        "shm_segments": leaked_shm,
        "processes": len(survivors),
        "threads": result.pop("threads_left"),
    }
    leaks = len(leaked_shm) + len(survivors) + len(result["leaks"]["threads"])
    if args.trace:
        result["metrics"]["bench.leaks"] = float(leaks)
        result["n"]["bench.leaks"] = 1
    result["correct"] = result["failed"] == 0 and leaks == 0
    return result


def host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def print_report(result: dict, spec: dict) -> None:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(
        f"ledger {result['workload']}  seed={result['seed']} trace={result['trace']} "
        f"seconds={result['seconds']} rounds={result['rounds']} scale={result['scale']}  "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    print(f"  {'metric':<34}{'value':>16}  {'unit':<8}{'n':>6}  bound")
    for name, value in result["metrics"].items():
        meta = declared[name]
        shown = "unavailable" if value is None else f"{value:.6g}"
        print(
            f"  {name:<34}{shown:>16}  {meta['unit']:<8}{result['n'].get(name, 0):>6}  "
            f"{meta.get('bound', '-')}"
        )
    for kind, value in result.get("detail", {}).get("latency_ms_p50_by_kind", {}).items():
        print(f"  detail latency_ms_p50[{kind}] = {value:.4g} ms")
    for line in result["unavailable"]:
        print(f"  unavailable: {line}")
    for error in result["errors"]:
        print(f"  error: {error}")
    leaks = result["leaks"]
    if leaks["shm_segments"] or leaks["processes"] or leaks["threads"]:
        print(f"  LEAKS: {leaks}")


def final_line(results: list, spec: dict) -> str:
    """The contract's last line: exactly correct/attempted/failed/metrics.

    A per-layer metric that is unavailable reads -1 (never a measured
    value: every per-layer metric is a count, a time or a share)."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {
                "value": -1 if value is None else value, "unit": units[name],
            }
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def write_out(path: str, results: list) -> None:
    """Append the runs to ``path`` (a set of runs is one file)."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError:
        document = {"host": host(), "runs": []}
    document["runs"] += results
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


# -- compare -------------------------------------------------------------------


def _spread(values: list) -> float:
    """Run-to-run spread as a share of the median: the quartile distance
    with four or more runs, the range with fewer."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """A (parent) against B (change): per workload and end-to-end metric."""
    sides = []
    for path in (path_a, path_b):
        with open(path) as handle:
            runs = [r for r in json.load(handle)["runs"] if not r["trace"]]
        table = {}
        for run in runs:
            for name, value in run["metrics"].items():
                table.setdefault((run["workload"], name), []).append(value)
        sides.append(table)
    regressed = 0
    print(f"  {'workload':<14}{'metric':<18}{'A median':>12}{'B median':>12}{'worse by':>10}{'bound':>7}  verdict")
    gated = [w["name"] for w in spec["workloads"]]
    extra = sorted({w for side in sides for w, _ in side} - set(gated))
    for workload in gated + extra:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            a, b = sides[0].get(key), sides[1].get(key)
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
            if sign > 0:
                all_better = max(b) < min(a)
            else:
                all_better = min(b) > max(a)
            if worse > metric["bound"]:
                verdict = "regressed"
                regressed += 1
            elif max(_spread(a), _spread(b)) > metric["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"  {key[0]:<14}{key[1]:<18}{median_a:>12.5g}{median_b:>12.5g}"
                f"{worse:>+10.3f}{metric['bound']:>7}  {verdict}"
            )
    return 1 if regressed else 0


# -- entry ---------------------------------------------------------------------


def main(argv=None) -> int:
    spec = load_spec()
    gated = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        help=f"default: {', '.join(gated)}, in turn (scan_parallel only by name)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="fixed round count instead of --seconds")
    parser.add_argument("--scale", type=float, default=1.0, help="table-size factor (smoke test)")
    parser.add_argument("--out", help="append the runs to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.child:
        result = run_child(args)
        with open(args.child, "w") as handle:
            json.dump(result, handle)
        return 0
    # Importing the workloads imports the program: fail here, before any
    # child starts, if it is not there.
    from workloads import NAMES

    if args.workload and args.workload not in NAMES:
        parser.error(f"--workload must be one of {', '.join(NAMES)}")

    results = []
    for name in [args.workload] if args.workload else gated:
        result = supervise(name, args)
        print_report(result, spec)
        results.append(result)
    print(f"host {json.dumps(host())}")
    if args.out:
        write_out(args.out, results)
    print(final_line(results, spec))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
