"""Analytical sizing of the randomized pruners (paper §5, Appendices C/E).

These are the closed forms the paper proves:

* Theorem 2 — matrix columns ``w`` for a randomized TOP N given rows
  ``d``, output size ``N``, and failure probability ``delta``
  (:func:`topn_cols`).
* The Lambert-W space optimization — the ``d`` minimizing ``w * d``
  (:func:`topn_optimal_rows` / :func:`topn_optimal_config`).
* Theorem 3 — expected unpruned count on random-order streams
  (:func:`topn_expected_unpruned`).
* Theorem 1 — expected pruned fraction of duplicates for DISTINCT
  (:func:`distinct_expected_pruning`).
* Theorem 4 — fingerprint widths (re-exported from
  :mod:`repro.sketches.fingerprint`).

The benches in ``benchmarks/bench_theory_bounds.py`` check empirical rates
against these bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError
from ..sketches.fingerprint import max_row_load, required_bits, required_bits_simple
from ..sketches.cachematrix import expected_distinct_pruning as distinct_expected_pruning

__all__ = [
    "topn_cols",
    "topn_optimal_rows",
    "topn_optimal_config",
    "topn_expected_unpruned",
    "topn_expected_pruning_rate",
    "distinct_expected_pruning",
    "max_row_load",
    "required_bits",
    "required_bits_simple",
    "TopNConfig",
]


def topn_cols(rows: int, n: int, delta: float) -> int:
    """Theorem 2: matrix columns for randomized TOP N.

    ``w = floor(1.3 ln(d/delta) / ln((d/(N e)) ln(d/delta)))``.

    Requires ``d >= N*e / ln(1/delta)`` — with fewer rows the balls-in-bins
    bound needs an infeasible number of columns and we raise rather than
    return a wrong size.  Paper examples: ``topn_cols(600, 1000, 1e-4) == 16``
    and ``topn_cols(8000, 1000, 1e-4) == 5``.
    """
    if rows <= 0 or n <= 0:
        raise ConfigurationError(f"need positive d and N, got d={rows} N={n}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    log_term = math.log(rows / delta)
    inner = (rows / (n * math.e)) * log_term
    if inner <= 1.0:
        raise ConfigurationError(
            f"d={rows} too small for N={n} at delta={delta}: "
            f"need d >= N*e/ln(1/delta) ~ {math.ceil(n * math.e / math.log(1 / delta))}"
        )
    return max(1, math.floor(1.3 * log_term / math.log(inner)))


def topn_optimal_rows(n: int, delta: float) -> int:
    """The space-optimal row count ``d = delta * e^{W(N e^2 / delta)}``.

    Minimizes ``w * d`` over ``d`` (Appendix E's continuous optimum).  The
    returned value is rounded to an integer; :func:`topn_optimal_config`
    refines it with a local integer search because the flooring of ``w``
    makes the objective slightly non-smooth.
    """
    if n <= 0:
        raise ConfigurationError(f"N must be positive, got {n}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    # Imported here: scipy costs ~27 MiB of RSS and 0.3 s per process,
    # and only this analysis helper (never a query path) needs it.
    from scipy.special import lambertw

    x = n * math.e**2 / delta
    w_val = float(lambertw(x).real)
    return max(1, round(delta * math.exp(w_val)))


def topn_optimal_config(n: int, delta: float) -> Tuple[int, int]:
    """Integer-optimal ``(d, w)`` minimizing ``w * d`` near the continuous optimum.

    Scans ``d`` in ``[d*/4, d* * 4]`` around the Lambert-W
    solution (paper footnote: the true optimum is the continuous one
    adjusted for the flooring of ``w``).
    """
    center = topn_optimal_rows(n, delta)
    lo = max(1, int(center / 4))
    hi = int(center * 4) + 1
    best: Tuple[int, int] = (0, 0)
    best_cost = math.inf
    for d in range(lo, hi + 1):
        try:
            w = topn_cols(d, n, delta)
        except ConfigurationError:
            continue
        cost = w * d
        if cost < best_cost:
            best_cost = cost
            best = (d, w)
    if best == (0, 0):
        raise ConfigurationError(
            f"no feasible (d, w) found near d={center} for N={n}, delta={delta}"
        )
    return best


def topn_expected_unpruned(stream_length: int, rows: int, cols: int) -> float:
    """Theorem 3: expected surviving entries ``w d ln(m e / (w d))``.

    Valid when ``m >= w * d``; for shorter streams nothing can be pruned
    beyond the trivial bound and we return ``m``.
    """
    if stream_length <= 0 or rows <= 0 or cols <= 0:
        raise ConfigurationError(
            f"need positive m, d, w; got m={stream_length} d={rows} w={cols}"
        )
    capacity = rows * cols
    if stream_length <= capacity:
        return float(stream_length)
    return capacity * math.log(stream_length * math.e / capacity)


def topn_expected_pruning_rate(stream_length: int, rows: int, cols: int) -> float:
    """Expected pruned fraction implied by Theorem 3."""
    unpruned = topn_expected_unpruned(stream_length, rows, cols)
    return max(0.0, 1.0 - unpruned / stream_length)


@dataclass(frozen=True)
class TopNConfig:
    """A sized randomized-TOP-N configuration with its predicted rates."""

    n: int
    delta: float
    rows: int
    cols: int

    @classmethod
    def for_rows(cls, n: int, delta: float, rows: int) -> "TopNConfig":
        """Size ``w`` for a given ``d`` (per-stage memory known)."""
        return cls(n=n, delta=delta, rows=rows, cols=topn_cols(rows, n, delta))

    @classmethod
    def optimal(cls, n: int, delta: float) -> "TopNConfig":
        """Space-and-pruning optimal configuration (Lambert W)."""
        rows, cols = topn_optimal_config(n, delta)
        return cls(n=n, delta=delta, rows=rows, cols=cols)

    @property
    def matrix_cells(self) -> int:
        """Total state cells ``d * w``."""
        return self.rows * self.cols
