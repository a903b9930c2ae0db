"""Ablations: the paper's theorems against empirical behaviour.

Not a paper figure — this bench validates the analytical machinery the
randomized algorithms are sized with (DESIGN.md's ablation row):

* Theorem 1 — DISTINCT duplicate-pruning lower bound vs measurement;
* Theorem 2 — randomized TOP N failure rate across seeds stays under a
  generous multiple of delta;
* Theorem 3 — expected TOP N survivor count vs measurement;
* Theorem 4 — fingerprint widths prevent same-row collisions;
* Lambert-W optimum — the (d, w) minimizing d*w is at least as small as
  the paper's fixed-d example configurations;
* Count-Min conservative update — tighter but still one-sided.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.montecarlo import estimate_failure_rate
from repro.core.distinct import DistinctPruner, FingerprintDistinctPruner
from repro.core.sizing import (
    TopNConfig,
    distinct_expected_pruning,
    topn_expected_unpruned,
)
from repro.core.topn import TopNRandomizedPruner, master_topn
from repro.sketches.countmin import CountMinSketch
from repro.workloads.synthetic import random_order_stream

from _harness import emit, table


def test_theorem1_distinct_bound(benchmark):
    d, w = 64, 2
    distinct = 2000  # satisfies D > d ln(200 d)
    stream = random_order_stream(40_000, distinct, seed=21)
    pruner = DistinctPruner(rows=d, cols=w)
    survivors = pruner.survivors(stream)
    duplicates = len(stream) - distinct
    measured = (len(stream) - len(survivors)) / duplicates
    bound = distinct_expected_pruning(distinct, d, w)
    emit(
        "theory_thm1_distinct",
        table(
            ["quantity", "value"],
            [
                ("Theorem 1 lower bound", f"{bound:.3f}"),
                ("measured duplicate pruning", f"{measured:.3f}"),
            ],
        ),
    )
    assert measured >= bound * 0.9  # single-run slack on an expectation bound
    benchmark(lambda: distinct_expected_pruning(distinct, d, w))


def test_theorem2_failure_rate(benchmark):
    # delta = 5% so failures are observable across 60 seeds; the measured
    # rate must stay within a small multiple of delta.
    n, rows, delta, trials = 50, 256, 0.05, 60
    stream_rng = random.Random(99)
    stream = [stream_rng.random() for _ in range(5000)]
    expected_top = sorted(master_topn(stream, n))
    failures = estimate_failure_rate(
        lambda seed: TopNRandomizedPruner(n=n, rows=rows, delta=delta, seed=seed),
        stream,
        lambda survivors: sorted(master_topn(survivors, n)) == expected_top,
        trials=trials,
    ).failures
    emit(
        "theory_thm2_failures",
        table(
            ["quantity", "value"],
            [
                ("delta", delta),
                ("trials", trials),
                ("observed failures", failures),
                ("observed rate", f"{failures / trials:.3f}"),
            ],
        ),
    )
    assert failures / trials <= delta * 3
    benchmark(lambda: TopNConfig.for_rows(n, delta, rows))


def test_theorem3_survivor_count(benchmark):
    rows, cols, m = 64, 6, 40_000
    rng = random.Random(31)
    stream = [rng.random() for _ in range(m)]
    counts = []
    for seed in range(5):
        pruner = TopNRandomizedPruner(n=20, rows=rows, cols=cols, seed=seed)
        counts.append(len(pruner.survivors(stream)))
    bound = topn_expected_unpruned(m, rows, cols)
    mean = sum(counts) / len(counts)
    emit(
        "theory_thm3_survivors",
        table(
            ["quantity", "value"],
            [
                ("Theorem 3 expected bound", f"{bound:.0f}"),
                ("measured mean survivors", f"{mean:.0f}"),
                ("measured runs", counts),
            ],
        ),
    )
    assert mean <= bound * 1.2
    benchmark(lambda: topn_expected_unpruned(m, rows, cols))


def test_theorem4_fingerprints(benchmark):
    # Theorem-4-sized fingerprints: no distinct value lost on any of 5 runs.
    distinct, rows = 5000, 256
    losses = 0
    for seed in range(5):
        stream = random_order_stream(20_000, distinct, seed=seed)
        pruner = FingerprintDistinctPruner(
            rows=rows, cols=2, expected_distinct=distinct, delta=1e-4, seed=seed
        )
        survivors = set(pruner.survivors(stream))
        losses += distinct - len(survivors)
    emit(
        "theory_thm4_fingerprints",
        table(
            ["quantity", "value"],
            [
                ("fingerprint bits", pruner.scheme.bits),
                ("distinct values lost (5 runs)", losses),
            ],
        ),
    )
    assert losses == 0
    benchmark(lambda: FingerprintDistinctPruner(
        rows=rows, cols=2, expected_distinct=distinct
    ))


def test_lambertw_space_optimum(benchmark):
    config = TopNConfig.optimal(1000, 1e-4)
    fixed_600 = TopNConfig.for_rows(1000, 1e-4, 600)
    fixed_8000 = TopNConfig.for_rows(1000, 1e-4, 8000)
    emit(
        "theory_lambertw_optimum",
        table(
            ["configuration", "d", "w", "cells d*w"],
            [
                ("Lambert-W optimum", config.rows, config.cols, config.matrix_cells),
                ("paper d=600", 600, fixed_600.cols, fixed_600.matrix_cells),
                ("paper d=8000", 8000, fixed_8000.cols, fixed_8000.matrix_cells),
            ],
        ),
    )
    assert config.matrix_cells <= fixed_600.matrix_cells
    assert config.matrix_cells <= fixed_8000.matrix_cells
    benchmark(lambda: TopNConfig.optimal(1000, 1e-4))


def test_conservative_countmin_ablation(benchmark):
    # Conservative update keeps one-sidedness while tightening estimates —
    # a documented extension beyond the paper's plain Count-Min.
    rng = random.Random(77)
    stream = [(rng.randrange(300), rng.randrange(1, 10)) for _ in range(20_000)]
    truth = {}
    plain = CountMinSketch(width=128, depth=3, seed=1)
    conservative = CountMinSketch(width=128, depth=3, conservative=True, seed=1)
    for key, amount in stream:
        plain.add(key, amount)
        conservative.add(key, amount)
        truth[key] = truth.get(key, 0) + amount
    plain_err = sum(plain.estimate(k) - v for k, v in truth.items())
    cons_err = sum(conservative.estimate(k) - v for k, v in truth.items())
    emit(
        "theory_conservative_cms",
        table(
            ["sketch", "total overestimate"],
            [("plain", plain_err), ("conservative", cons_err)],
        ),
    )
    assert cons_err <= plain_err
    assert all(conservative.estimate(k) >= v for k, v in truth.items())
    benchmark(lambda: CountMinSketch(width=128, depth=3).add(1, 1))
