"""Tests for the analytical sizing formulas (repro.core.sizing)."""

from __future__ import annotations

import math

import pytest

from repro.core.sizing import (
    TopNConfig,
    distinct_expected_pruning,
    topn_cols,
    topn_expected_pruning_rate,
    topn_expected_unpruned,
    topn_optimal_config,
    topn_optimal_rows,
)
from repro.errors import ConfigurationError


class TestTopNCols:
    def test_paper_examples(self):
        # §5: N=1000, delta=0.0001: d=600 -> w=16; d=8000 -> w=5.
        assert topn_cols(600, 1000, 1e-4) == 16
        assert topn_cols(8000, 1000, 1e-4) == 5

    def test_small_d_needs_many_cols(self):
        # d=200 -> w ~ 288 in the paper (we allow the formula's exact value).
        w = topn_cols(200, 1000, 1e-4)
        assert 250 <= w <= 320

    def test_monotone_decreasing_in_d(self):
        deltas = [topn_cols(d, 500, 1e-4) for d in (400, 1000, 4000, 16_000)]
        assert deltas == sorted(deltas, reverse=True)

    def test_infeasible_d_raises(self):
        with pytest.raises(ConfigurationError):
            topn_cols(10, 1000, 1e-4)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            topn_cols(0, 10, 0.1)
        with pytest.raises(ConfigurationError):
            topn_cols(10, 0, 0.1)
        with pytest.raises(ConfigurationError):
            topn_cols(10, 10, 0.0)

    def test_at_least_one_column(self):
        assert topn_cols(10**6, 10, 1e-2) >= 1


class TestOptimalRows:
    def test_positive(self):
        assert topn_optimal_rows(1000, 1e-4) > 0

    def test_optimal_config_minimizes_cells(self):
        d_opt, w_opt = topn_optimal_config(1000, 1e-4)
        optimal_cells = d_opt * w_opt
        # Any feasible neighbor uses at least as many cells.
        for d in (d_opt // 2, d_opt * 2, 600, 8000):
            try:
                w = topn_cols(d, 1000, 1e-4)
            except ConfigurationError:
                continue
            assert d * w >= optimal_cells

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            topn_optimal_rows(0, 0.1)
        with pytest.raises(ConfigurationError):
            topn_optimal_rows(10, 2.0)


class TestTheorem3:
    def test_paper_example_8m(self):
        # d=600, w=16 matrix, m=8M: >= 99% pruning expected.
        rate = topn_expected_pruning_rate(8_000_000, 600, 16)
        assert rate >= 0.99

    def test_paper_example_100m(self):
        rate = topn_expected_pruning_rate(100_000_000, 600, 16)
        assert rate >= 0.999

    def test_formula_value(self):
        m, d, w = 100_000, 64, 4
        expected = d * w * math.log(m * math.e / (d * w))
        assert topn_expected_unpruned(m, d, w) == pytest.approx(expected)

    def test_short_stream_returns_m(self):
        assert topn_expected_unpruned(100, 64, 4) == 100.0

    def test_rate_improves_with_scale(self):
        small = topn_expected_pruning_rate(10**5, 600, 16)
        large = topn_expected_pruning_rate(10**8, 600, 16)
        assert large > small

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            topn_expected_unpruned(0, 1, 1)


class TestTopNConfig:
    def test_for_rows(self):
        config = TopNConfig.for_rows(1000, 1e-4, 600)
        assert config.cols == 16
        assert config.matrix_cells == 600 * 16

    def test_optimal(self):
        config = TopNConfig.optimal(1000, 1e-4)
        assert config.rows * config.cols == config.matrix_cells


class TestDistinctExpectedPruning:
    def test_reexported_and_consistent(self):
        assert distinct_expected_pruning(15_000, 1000, 24) == pytest.approx(
            0.58, abs=0.02
        )


def test_importing_the_serving_stack_leaves_scipy_out():
    """scipy (~27 MiB RSS) is analysis-only: no query path may import it."""
    import os
    import subprocess
    import sys

    code = (
        "import sys, repro, repro.serve, repro.fleet; "
        "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_sequential_runs_leave_the_process_pool_out():
    """A one-shard run is free of transport: after one sequential run of
    every operator plan, none of the pool's modules has been imported
    (what keeps ``import repro`` + a query small and fast to start)."""
    import os
    import subprocess
    import sys

    code = """
import sys
import numpy as np
import repro, repro.engine, repro.serve
from repro import Cluster, Table, parse_sql
tables = {
    "t": Table("t", {"k": np.arange(40) % 7, "v": np.arange(40.0)}),
    "u": Table("u", {"k": np.arange(10)}),
}
for sql in (
    "SELECT COUNT(*) FROM t WHERE v > 3",
    "SELECT * FROM t JOIN u ON t.k = u.k",
    "SELECT k FROM t GROUP BY k HAVING SUM(v) > 50",
    "SELECT * FROM t SKYLINE OF k, v",
):
    Cluster(workers=3).run_verified(parse_sql(sql), tables)
banned = ("repro.parallel.runner", "repro.parallel.worker",
          "multiprocessing.shared_memory", "concurrent.futures.process")
sys.exit(any(name in sys.modules for name in banned))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
