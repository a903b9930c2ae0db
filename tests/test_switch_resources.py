"""Tests for the resource model and footprints (repro.switch.resources)."""

from __future__ import annotations

import pytest

from repro.errors import ResourceError
from repro.switch.resources import (
    MB,
    MINI,
    TOFINO,
    TOFINO2,
    ResourceFootprint,
    ResourceModel,
)


class TestResourceModel:
    def test_default_profile_totals(self):
        assert TOFINO.total_sram_bits == TOFINO.stages * TOFINO.sram_bits_per_stage

    def test_tofino2_is_larger(self):
        assert TOFINO2.sram_bits_per_stage > TOFINO.sram_bits_per_stage
        assert TOFINO2.tcam_entries > TOFINO.tcam_entries

    def test_mini_is_tiny(self):
        assert MINI.stages < TOFINO.stages
        assert MINI.total_sram_bits < TOFINO.total_sram_bits


class TestFootprintFits:
    def test_empty_footprint_fits_everything(self):
        ResourceFootprint().check_fits(MINI)

    def test_too_many_stages(self):
        fp = ResourceFootprint(stages=MINI.stages + 1, label="X")
        with pytest.raises(ResourceError, match="stages"):
            fp.check_fits(MINI)

    def test_too_much_total_sram(self):
        fp = ResourceFootprint(stages=1, sram_bits=MINI.total_sram_bits + 1)
        with pytest.raises(ResourceError, match="SRAM"):
            fp.check_fits(MINI)

    def test_per_stage_sram_overflow(self):
        fp = ResourceFootprint(
            stages=2,
            sram_bits=MINI.sram_bits_per_stage + 1,
            stage_sram_bits={0: MINI.sram_bits_per_stage + 1},
        )
        with pytest.raises(ResourceError, match="stage 0"):
            fp.check_fits(MINI)

    def test_too_many_alus_per_stage(self):
        fp = ResourceFootprint(stages=1, alus=MINI.alus_per_stage + 1)
        with pytest.raises(ResourceError, match="ALU"):
            fp.check_fits(MINI)

    def test_tcam_overflow(self):
        fp = ResourceFootprint(tcam_entries=MINI.tcam_entries + 1)
        with pytest.raises(ResourceError, match="TCAM"):
            fp.check_fits(MINI)

    def test_phv_overflow(self):
        fp = ResourceFootprint(phv_bits=MINI.phv_bits + 1)
        with pytest.raises(ResourceError, match="PHV"):
            fp.check_fits(MINI)

    def test_fits_returns_bool(self):
        assert ResourceFootprint().fits(MINI)
        assert not ResourceFootprint(stages=100).fits(MINI)

    def test_error_message_names_program(self):
        fp = ResourceFootprint(stages=100, label="DISTINCT-LRU")
        with pytest.raises(ResourceError, match="DISTINCT-LRU"):
            fp.check_fits(TOFINO)


class TestFootprintMerging:
    def test_serial_adds_stages(self):
        a = ResourceFootprint(stages=3, alus=3, sram_bits=10, label="A")
        b = ResourceFootprint(stages=2, alus=2, sram_bits=20, label="B")
        merged = a.merged_serial(b)
        assert merged.stages == 5
        assert merged.alus == 5
        assert merged.sram_bits == 30

    def test_serial_offsets_stage_map(self):
        a = ResourceFootprint(stages=2, stage_sram_bits={0: 5, 1: 5})
        b = ResourceFootprint(stages=1, stage_sram_bits={0: 7})
        merged = a.merged_serial(b)
        assert merged.stage_sram_bits == {0: 5, 1: 5, 2: 7}

    def test_parallel_takes_max_stages(self):
        a = ResourceFootprint(stages=3, alus=3)
        b = ResourceFootprint(stages=5, alus=2)
        merged = a.merged_parallel(b)
        assert merged.stages == 5
        assert merged.alus == 5

    def test_parallel_sums_per_stage_sram(self):
        a = ResourceFootprint(stages=1, stage_sram_bits={0: 5})
        b = ResourceFootprint(stages=1, stage_sram_bits={0: 7})
        assert a.merged_parallel(b).stage_sram_bits == {0: 12}

    def test_parallel_sums_phv(self):
        a = ResourceFootprint(phv_bits=100)
        b = ResourceFootprint(phv_bits=200)
        assert a.merged_parallel(b).phv_bits == 300

    def test_serial_takes_max_phv(self):
        a = ResourceFootprint(phv_bits=100)
        b = ResourceFootprint(phv_bits=200)
        assert a.merged_serial(b).phv_bits == 200

    def test_labels_combine(self):
        a = ResourceFootprint(label="A")
        b = ResourceFootprint(label="B")
        assert a.merged_serial(b).label == "A+B"
        assert a.merged_parallel(b).label == "A|B"
