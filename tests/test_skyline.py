"""Tests for SKYLINE pruning (repro.core.skyline)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.base import Guarantee, PruneDecision
from repro.core.skyline import (
    AphScore,
    SkylinePruner,
    master_skyline,
    score_product,
    score_sum,
    weakly_dominates,
)
from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.workloads.synthetic import uniform_points


def correlated_points(length, dims=2, high=1 << 16, correlation=-0.6, seed=0):
    """Anti-correlated points: large skylines, the hard SKYLINE case."""
    rng = np.random.default_rng(seed)
    cov = np.full((dims, dims), correlation)
    np.fill_diagonal(cov, 1.0)
    # Nearest PSD fix for strongly negative off-diagonals in high dims.
    eigvals, eigvecs = np.linalg.eigh(cov)
    cov = (eigvecs * np.clip(eigvals, 1e-6, None)) @ eigvecs.T
    raw = rng.multivariate_normal(np.zeros(dims), cov, size=length)
    scaled = (raw - raw.min(axis=0)) / (raw.max(axis=0) - raw.min(axis=0) + 1e-12)
    points = np.floor(scaled * (high - 1)).astype(int)
    return [tuple(float(v) for v in row) for row in points]


def _stored_scores(pruner):
    """Scores of the points the pruner's slots hold, in slot order."""
    return [slot[0] for slot in pruner._slots if slot is not None]


def _run_with_drain(pruner, points):
    """Stream points; return what the master receives (carried + drained)."""
    received = []
    for point in points:
        if pruner.process(point) is PruneDecision.FORWARD:
            received.append(pruner.last_carried)
    received.extend(pruner.drain())
    return received


class TestDomination:
    def test_weakly_dominates(self):
        assert weakly_dominates((3, 3), (3, 3))
        assert weakly_dominates((5, 3), (3, 3))
        assert not weakly_dominates((5, 2), (3, 3))


class TestScores:
    def test_sum(self):
        assert score_sum((2, 3)) == 5.0

    def test_product_shifted(self):
        assert score_product((0, 0)) == 1.0
        assert score_product((1, 2)) == 6.0

    def test_scores_monotone_under_domination(self):
        # h monotone: y dominates x => h(y) >= h(x), for every score.
        pairs = [((10, 20), (5, 20)), ((7, 7), (7, 6)), ((100, 1), (99, 0))]
        aph = AphScore()
        for better, worse in pairs:
            assert score_sum(better) >= score_sum(worse)
            assert score_product(better) >= score_product(worse)
            assert aph(better) >= aph(worse)

    def test_aph_tracks_product_ordering(self):
        # APH approximates log of the product; ordering should agree with
        # the true product on well-separated pairs.
        aph = AphScore(beta=1 << 10)
        a, b = (100, 200), (30, 40)
        assert (aph(a) > aph(b)) == (score_product(a) > score_product(b))

    def test_aph_rejects_negative_coordinates(self):
        with pytest.raises(UnsupportedOperationError):
            AphScore()((-1, 5))


class TestSkylinePruner:
    def test_paper_ratings_example(self, ratings_table):
        # SKYLINE OF taste, texture over Table 1b -> Cheetos, Jello, Burger.
        points = [
            (7.0, 5.0),   # Pizza
            (8.0, 6.0),   # Cheetos
            (9.0, 4.0),   # Jello
            (5.0, 7.0),   # Burger
            (3.0, 3.0),   # Fries
        ]
        pruner = SkylinePruner(dims=2, points=4, score="sum")
        received = _run_with_drain(pruner, points)
        assert set(master_skyline(received)) == {
            (8.0, 6.0),
            (9.0, 4.0),
            (5.0, 7.0),
        }

    @pytest.mark.parametrize("score", ["sum", "product", "aph", "baseline"])
    def test_contract_on_uniform_points(self, score):
        points = uniform_points(2000, dims=2, seed=3)
        pruner = SkylinePruner(dims=2, points=8, score=score)
        received = _run_with_drain(pruner, points)
        assert set(master_skyline(received)) == set(master_skyline(points))

    @pytest.mark.parametrize("score", ["sum", "aph"])
    def test_contract_on_anticorrelated_points(self, score):
        # Anti-correlated data has large skylines - the stress case.
        points = correlated_points(1500, dims=2, seed=5)
        pruner = SkylinePruner(dims=2, points=6, score=score)
        received = _run_with_drain(pruner, points)
        assert set(master_skyline(received)) == set(master_skyline(points))

    def test_contract_three_dimensions(self):
        points = uniform_points(1000, dims=3, seed=7)
        pruner = SkylinePruner(dims=3, points=5, score="sum")
        received = _run_with_drain(pruner, points)
        assert set(master_skyline(received)) == set(master_skyline(points))

    def test_dominated_point_pruned(self):
        pruner = SkylinePruner(dims=2, points=2, score="sum")
        pruner.process((10.0, 10.0))
        assert pruner.process((5.0, 5.0)) is PruneDecision.PRUNE

    def test_duplicate_point_pruned(self):
        pruner = SkylinePruner(dims=2, points=2, score="sum")
        pruner.process((10.0, 10.0))
        assert pruner.process((10.0, 10.0)) is PruneDecision.PRUNE

    def test_stored_points_have_highest_scores(self):
        pruner = SkylinePruner(dims=2, points=2, score="sum")
        for point in [(1.0, 1.0), (10.0, 10.0), (5.0, 5.0), (20.0, 1.0)]:
            pruner.process(point)
        scores = _stored_scores(pruner)
        assert sorted(scores, reverse=True) == scores
        assert 20.0 in scores and 21.0 in scores  # sums 20+1 and 10+10

    def test_pruning_rate_improves_with_more_points(self):
        points = uniform_points(3000, dims=2, seed=9)
        small = SkylinePruner(dims=2, points=2, score="sum")
        large = SkylinePruner(dims=2, points=16, score="sum")
        for p in points:
            small.process(p)
            large.process(p)
        assert large.stats.pruning_rate >= small.stats.pruning_rate

    def test_aph_prunes_at_least_as_well_as_baseline(self):
        points = uniform_points(3000, dims=2, seed=11)
        aph = SkylinePruner(dims=2, points=6, score="aph")
        baseline = SkylinePruner(dims=2, points=6, score="baseline")
        for p in points:
            aph.process(p)
            baseline.process(p)
        assert aph.stats.pruning_rate >= baseline.stats.pruning_rate

    def test_baseline_never_replaces(self):
        pruner = SkylinePruner(dims=2, points=1, score="baseline")
        pruner.process((1.0, 1.0))
        pruner.process((100.0, 100.0))
        assert _stored_scores(pruner) == [2.0]  # first point pinned

    def test_wrong_dimensionality_raises(self):
        pruner = SkylinePruner(dims=2, points=2)
        with pytest.raises(ConfigurationError):
            pruner.process((1.0, 2.0, 3.0))

    def test_drain_returns_stored_points(self):
        pruner = SkylinePruner(dims=2, points=3, score="sum")
        pruner.process((1.0, 2.0))
        assert (1.0, 2.0) in pruner.drain()

    def test_reset(self):
        pruner = SkylinePruner(dims=2, points=2)
        pruner.process((1.0, 1.0))
        pruner.reset()
        assert pruner.drain() == []
        assert pruner.stats.processed == 0

    def test_guarantee(self):
        assert SkylinePruner().guarantee is Guarantee.DETERMINISTIC

    def test_footprint_scores(self):
        sum_fp = SkylinePruner(dims=2, points=10, score="sum").footprint()
        aph_fp = SkylinePruner(dims=2, points=10, score="aph").footprint()
        assert aph_fp.tcam_entries > sum_fp.tcam_entries
        assert aph_fp.sram_bits > sum_fp.sram_bits

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            SkylinePruner(dims=0)
        with pytest.raises(ConfigurationError):
            SkylinePruner(points=0)
        with pytest.raises(ConfigurationError):
            SkylinePruner(score="cosine")


class TestMasterSkyline:
    def test_exact_skyline(self):
        points = [(1, 5), (5, 1), (3, 3), (2, 2), (5, 1)]
        assert set(master_skyline(points)) == {(1, 5), (5, 1), (3, 3)}

    def test_single_point(self):
        assert master_skyline([(1, 1)]) == [(1, 1)]

    def test_empty(self):
        assert master_skyline([]) == []

    def test_duplicates_deduped(self):
        assert master_skyline([(2, 2), (2, 2)]) == [(2, 2)]


class TestMasterSkylineSfsEquivalence:
    """The sort-filter implementation must equal brute force exactly."""

    @staticmethod
    def _brute_force(points):
        unique = list(dict.fromkeys(tuple(p) for p in points))
        return {
            c
            for c in unique
            if not any(o != c and weakly_dominates(o, c) for o in unique)
        }

    def test_equivalence_on_random_sets(self):
        import random

        rng = random.Random(31)
        for trial in range(50):
            dims = rng.choice([2, 3])
            points = [
                tuple(float(rng.randrange(20)) for _ in range(dims))
                for _ in range(rng.randrange(1, 120))
            ]
            assert set(master_skyline(points)) == self._brute_force(points), points

    def test_equivalence_with_heavy_ties(self):
        points = [(1.0, 2.0), (2.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.5, 1.5)]
        assert set(master_skyline(points)) == self._brute_force(points)

    def test_all_on_a_diagonal(self):
        # Equal sums, mutually incomparable: everything is skyline.
        points = [(float(i), float(10 - i)) for i in range(11)]
        assert set(master_skyline(points)) == set(points)


_ORDERS = {
    "shuffled": lambda points: points,
    "ascending": lambda points: sorted(points, key=sum),
    "descending": lambda points: sorted(points, key=sum, reverse=True),
    "constant": lambda points: points[:1] * len(points),
}


@st.composite
def _point_streams(draw):
    """Point streams with what the segment kernel must get right: score
    ties and duplicates (a small coordinate range), ascending, descending
    and constant runs, at every dimensionality.  Run lengths are drawn
    uniformly, so most streams outlast the ``w`` slots several times."""
    dims = draw(st.integers(1, 4))
    stream = []
    for _ in range(draw(st.integers(0, 4))):
        rng = random.Random(draw(st.integers(0, 2**16)))
        length, top = draw(st.integers(0, 60)), draw(st.sampled_from([3, 12, 70000]))
        points = [
            tuple(rng.randint(0, top) for _ in range(dims)) for _ in range(length)
        ]
        stream.extend(_ORDERS[draw(st.sampled_from(sorted(_ORDERS)))](points))
    return dims, stream


class TestSegmentKernelMatchesPerPointOracle:
    """``process_batch`` at any split == one ``process()`` call per point:
    forward mask, carried points, drain order, stored scores and stats —
    across a mid-stream reboot and a phantom ``inf``-score slot."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        points=_point_streams(),
        score=st.sampled_from(["sum", "product", "aph", "baseline"]),
        w=st.integers(1, 12),
        fault=st.sampled_from([None, "reboot", "corrupt"]),
        fault_at=st.integers(0, 160),
        seed=st.integers(0, 3),
    )
    def test_batch_equals_scalar(self, points, score, w, fault, fault_at, seed):
        dims, stream = points
        cut = min(fault_at, len(stream))

        def inject(pruner):
            if fault == "reboot":
                pruner.reboot()
            elif fault == "corrupt":
                pruner._corrupt_state(random.Random(seed))

        oracle = SkylinePruner(dims=dims, points=w, score=score)
        expected_mask, expected_carried = [], []
        for index, point in enumerate(stream):
            if index == cut:
                inject(oracle)
            forwarded = oracle.process(point) is PruneDecision.FORWARD
            expected_mask.append(forwarded)
            if forwarded:
                expected_carried.append(oracle.last_carried)
        if cut == len(stream):
            inject(oracle)

        for batch_size in (1, 7, 4096):
            pruner = SkylinePruner(dims=dims, points=w, score=score)
            mask, carried = [], []
            for lo, hi in ((0, cut), (cut, len(stream))):
                if lo == cut:
                    inject(pruner)
                for start in range(lo, hi, batch_size):
                    batch = stream[start : min(start + batch_size, hi)]
                    forward = pruner.process_batch(batch)
                    mask.extend(forward.tolist())
                    carried.extend(
                        map(tuple, pruner.last_batch_carried[forward].tolist())
                    )
            assert mask == expected_mask
            assert carried == expected_carried
            assert pruner.drain() == oracle.drain()
            assert _stored_scores(pruner) == _stored_scores(oracle)
            assert pruner.stats.processed == oracle.stats.processed
            assert pruner.stats.pruned == oracle.stats.pruned
            assert pruner.last_carried == oracle.last_carried

    @pytest.mark.parametrize("score", ["sum", "product", "baseline"])
    @pytest.mark.parametrize("lead", [0, 1, 3])
    def test_nan_scores_in_the_slots(self, score, lead):
        """A NaN score in a slot sets no floor, wherever it sits: the batch
        walk still replays every point that would replace a stored one."""
        rng = random.Random(lead)
        stream = [
            (float(rng.randint(0, 50)), float(rng.randint(0, 50))) for _ in range(200)
        ]
        stream[lead] = (math.nan, 1.0)
        stream[150] = (2.0, math.nan)
        oracle = SkylinePruner(dims=2, points=4, score=score)
        expected = [oracle.process(p) is PruneDecision.FORWARD for p in stream]
        for batch_size in (1, 7, 4096):
            pruner = SkylinePruner(dims=2, points=4, score=score)
            mask = []
            for start in range(0, len(stream), batch_size):
                batch = stream[start : start + batch_size]
                mask.extend(pruner.process_batch(batch).tolist())
            assert mask == expected
            assert str(pruner.drain()) == str(oracle.drain())
            assert pruner.stats.pruned == oracle.stats.pruned

    def test_aph_batch_score_matches_scalar_beyond_float_precision(self):
        aph = AphScore()
        points = [(0.0, 65535.0), (65536.0, 2.0**53), (2.0**53 + 2, 2.0**61)]
        assert aph.batch(np.array(points)).tolist() == [aph(p) for p in points]
        points.append((2.0**62, 2.0**63))  # past int64: the scalar fallback
        assert aph.batch(np.array(points)).tolist() == [aph(p) for p in points]
        with pytest.raises(UnsupportedOperationError):
            aph.batch(np.array([[1.0, -1.0]]))
