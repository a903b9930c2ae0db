"""Tests for Table 2 footprints and §6 packing (repro.switch.compiler)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError, ResourceError
from repro.switch import compiler
from repro.switch.compiler import (
    check_fits_cached,
    compile_cache_stats,
    footprint_distinct,
    footprint_filtering,
    footprint_groupby,
    footprint_having,
    footprint_join,
    footprint_skyline,
    footprint_topn_det,
    footprint_topn_rand,
    pack,
    table2,
)
from repro.switch.resources import MB, MINI, TOFINO, ResourceModel


class TestTable2Formulas:
    """Each footprint must evaluate Table 2's closed forms exactly."""

    def test_distinct_lru_defaults(self):
        fp = footprint_distinct(cols=2, rows=4096, policy="lru")
        assert fp.stages == 2          # w
        assert fp.alus == 2            # w
        assert fp.sram_bits == 4096 * 2 * 64  # (d*w) x 64b
        assert fp.tcam_entries == 0

    def test_distinct_fifo_folds_stages(self):
        fp = footprint_distinct(cols=2, rows=4096, policy="fifo", model=TOFINO)
        assert fp.stages == math.ceil(2 / TOFINO.alus_per_stage)  # ceil(w/A)
        assert fp.alus == 2

    def test_skyline_sum_defaults(self):
        fp = footprint_skyline(dims=2, points=10, score="sum")
        log_d = 1
        assert fp.stages == log_d + 2 * 10
        assert fp.alus == 2 * log_d - 1 + 10 * 3  # 2ceil(log D)-1 + w(D+1)
        assert fp.sram_bits == 10 * 3 * 64        # w(D+1) x 64b
        assert fp.tcam_entries == 0

    def test_skyline_aph_adds_log_table_and_tcam(self):
        fp = footprint_skyline(dims=2, points=10, score="aph")
        assert fp.stages == 1 + 2 * 11            # log D + 2(w+1)
        assert fp.sram_bits == 10 * 3 * 64 + (1 << 16) * 32
        assert fp.tcam_entries == 64 * 2          # 64 * D

    def test_topn_det_defaults(self):
        fp = footprint_topn_det(thresholds=4)
        assert fp.stages == 5                     # w + 1
        assert fp.alus == 5
        assert fp.sram_bits == 5 * 64             # (w+1) x 64b

    def test_topn_rand_defaults(self):
        fp = footprint_topn_rand(cols=4, rows=4096)
        assert fp.stages == 4
        assert fp.alus == 4
        assert fp.sram_bits == 4096 * 4 * 64

    def test_groupby_defaults(self):
        fp = footprint_groupby(cols=8, rows=4096)
        assert fp.stages == 8
        assert fp.alus == 8
        assert fp.sram_bits == 4096 * 8 * 64

    def test_join_bf_defaults(self):
        fp = footprint_join(memory_bits=4 * MB, hashes=3, variant="bf")
        assert fp.stages == 2
        assert fp.alus == 3                       # H
        assert fp.sram_bits == 4 * MB             # M

    def test_join_rbf(self):
        fp = footprint_join(memory_bits=4 * MB, hashes=3, variant="rbf")
        assert fp.stages == 1
        assert fp.alus == 1
        assert fp.sram_bits == 4 * MB + math.comb(64, 3) * 64

    def test_having_defaults(self):
        fp = footprint_having(width=1024, depth=3, model=TOFINO)
        assert fp.stages == math.ceil(3 / TOFINO.alus_per_stage)  # ceil(d/A)
        assert fp.alus == 3
        assert fp.sram_bits == 1024 * 3 * 64

    def test_filtering_one_alu_per_predicate(self):
        fp = footprint_filtering(predicates=3)
        assert fp.stages == 1
        assert fp.alus == 3
        assert fp.sram_bits == 3 * 64

    def test_all_table2_defaults_fit_tofino(self):
        for fp in table2():
            fp.check_fits(TOFINO)

    def test_table2_has_ten_rows(self):
        assert len(table2()) == 10


class TestValidation:
    def test_invalid_args_raise(self):
        with pytest.raises(ConfigurationError):
            footprint_filtering(predicates=0)
        with pytest.raises(ConfigurationError):
            footprint_skyline(dims=0)
        with pytest.raises(ConfigurationError):
            footprint_skyline(score="cosine")
        with pytest.raises(ConfigurationError):
            footprint_topn_det(thresholds=0)
        with pytest.raises(ConfigurationError):
            footprint_join(memory_bits=0)
        with pytest.raises(ConfigurationError):
            footprint_join(variant="cuckoo")


class TestPacking:
    def test_parallel_pack_fits_light_queries(self):
        # §6's example: a filter packs beside a group-by on shared stages.
        combined = pack(
            [footprint_filtering(1), footprint_groupby(cols=8, rows=1024)],
            TOFINO,
        )
        assert combined.stages <= TOFINO.stages

    def test_parallel_pack_adds_selector_stage(self):
        a = footprint_filtering(1)
        b = footprint_filtering(1)
        combined = pack([a, b], TOFINO, strategy="parallel")
        assert combined.stages == 2  # max(1,1) + selector

    def test_serial_pack_adds_stages(self):
        a = footprint_topn_det(4)
        b = footprint_groupby(cols=4, rows=512)
        combined = pack([a, b], TOFINO, strategy="serial")
        assert combined.stages == a.stages + b.stages

    def test_overcommit_raises(self):
        huge = footprint_join(memory_bits=TOFINO.total_sram_bits, variant="bf")
        with pytest.raises(ResourceError):
            pack([huge, huge], TOFINO)

    def test_pack_on_mini_model_rejects_table2(self):
        with pytest.raises(ResourceError):
            pack(table2(), MINI)

    def test_empty_pack_raises(self):
        with pytest.raises(ConfigurationError):
            pack([], TOFINO)

    def test_unknown_strategy_raises(self):
        with pytest.raises(ConfigurationError):
            pack([footprint_filtering(1)], TOFINO, strategy="diagonal")

    def test_single_program_pack_is_identity_shape(self):
        fp = footprint_groupby(cols=4, rows=512)
        combined = pack([fp], TOFINO)
        assert combined.stages == fp.stages
        assert combined.alus == fp.alus


class TestCompileMemo:
    """check_fits_cached / pack memoization (keyed on signature + model)."""

    def setup_method(self):
        compiler._FIT_CACHE.clear()
        compiler._PACK_CACHE.clear()
        compiler._CACHE_STATS.update(hits=0, misses=0)

    def test_repeat_fit_checks_hit_the_cache(self):
        fp = footprint_groupby(cols=4, rows=512)
        check_fits_cached(fp, TOFINO)
        assert compile_cache_stats() == {"hits": 0, "misses": 1}
        check_fits_cached(fp, TOFINO)
        check_fits_cached(footprint_groupby(cols=4, rows=512), TOFINO)
        assert compile_cache_stats() == {"hits": 2, "misses": 1}

    def test_different_model_is_a_different_key(self):
        fp = footprint_filtering(1)
        check_fits_cached(fp, TOFINO)
        check_fits_cached(fp, MINI)
        assert compile_cache_stats()["misses"] == 2

    def test_negative_fit_verdict_is_cached_and_reraised(self):
        huge = footprint_join(memory_bits=TOFINO.total_sram_bits * 4, variant="bf")
        with pytest.raises(ResourceError) as first:
            check_fits_cached(huge, TOFINO)
        with pytest.raises(ResourceError) as second:
            check_fits_cached(huge, TOFINO)
        assert str(first.value) == str(second.value)
        assert compile_cache_stats() == {"hits": 1, "misses": 1}

    def test_pack_is_memoized(self):
        fps = [footprint_filtering(2), footprint_topn_det(4)]
        first = pack(fps, TOFINO)
        misses = compile_cache_stats()["misses"]
        second = pack([footprint_filtering(2), footprint_topn_det(4)], TOFINO)
        assert compile_cache_stats()["misses"] == misses
        assert compile_cache_stats()["hits"] >= 1
        assert second.stages == first.stages
        assert second.sram_bits == first.sram_bits

    def test_pack_failure_is_cached_and_reraised(self):
        huge = footprint_join(memory_bits=TOFINO.total_sram_bits, variant="bf")
        with pytest.raises(ResourceError):
            pack([huge, huge], TOFINO)
        with pytest.raises(ResourceError):
            pack([huge, huge], TOFINO)
        assert compile_cache_stats()["hits"] >= 1

    def test_signature_is_hashable_and_stable(self):
        fp = footprint_groupby(cols=4, rows=512)
        assert fp.signature() == footprint_groupby(cols=4, rows=512).signature()
        assert hash(fp.signature()) == hash(fp.signature())
        assert fp.signature() != footprint_groupby(cols=5, rows=512).signature()
