"""Tests for stages, PHV, and pipeline execution (repro.switch)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ResourceError
from repro.switch.pipeline import Phv, Pipeline
from repro.switch.resources import MINI, ResourceModel
from repro.switch.stage import RegisterArray, Stage


class TestRegisterArray:
    def test_read_write(self):
        arr = RegisterArray("r", size=4)
        arr.write(2, 99)
        assert arr.read(2) == 99

    def test_width_truncation(self):
        arr = RegisterArray("r", size=1, width_bits=8)
        arr.write(0, 0x1FF)
        assert arr.read(0) == 0xFF

    def test_clear(self):
        arr = RegisterArray("r", size=2)
        arr.write(0, 5)
        arr.clear()
        assert arr.read(0) == 0

    def test_sram_accounting(self):
        assert RegisterArray("r", size=10, width_bits=32).sram_bits == 320

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            RegisterArray("r", size=0)
        with pytest.raises(ConfigurationError):
            RegisterArray("r", size=1, width_bits=128)


class TestStage:
    def test_register_allocation_charges_sram(self):
        stage = Stage(0, alus=2, sram_bits=1000)
        stage.alloc_register("r", size=10)
        assert stage._sram_used == 640

    def test_allocation_beyond_budget_raises(self):
        stage = Stage(0, alus=2, sram_bits=100)
        with pytest.raises(ResourceError):
            stage.alloc_register("r", size=10)

    def test_duplicate_register_name_raises(self):
        stage = Stage(0, alus=2, sram_bits=10_000)
        stage.alloc_register("r", size=1)
        with pytest.raises(ConfigurationError):
            stage.alloc_register("r", size=1)

    def test_alu_metering_enforced(self):
        stage = Stage(0, alus=2, sram_bits=10_000)
        stage.alloc_register("r", size=4)
        stage.begin_packet()
        stage.reg_read_modify_write("r", 0, lambda v: v)
        stage.reg_read_modify_write("r", 0, lambda v: 1)
        with pytest.raises(ResourceError, match="ALU"):
            stage.reg_read_modify_write("r", 1, lambda v: v)

    def test_begin_packet_resets_meter(self):
        stage = Stage(0, alus=1, sram_bits=10_000)
        stage.alloc_register("r", size=1)
        stage.begin_packet()
        stage.reg_read_modify_write("r", 0, lambda v: v)
        stage.begin_packet()
        stage.reg_read_modify_write("r", 0, lambda v: v)  # allowed again

    def test_read_modify_write_is_one_op(self):
        stage = Stage(0, alus=1, sram_bits=10_000)
        stage.alloc_register("r", size=1)
        stage.begin_packet()
        old = stage.reg_read_modify_write("r", 0, lambda v: v + 5)
        assert old == 0
        assert stage._alu_ops_this_packet == 1


class TestPhv:
    def test_declare_and_access(self):
        phv = Phv(budget_bits=128)
        phv.declare("value", 64, value=10)
        assert phv["value"] == 10
        phv["value"] = 20
        assert phv["value"] == 20

    def test_width_truncates_values(self):
        phv = Phv(budget_bits=64)
        phv.declare("small", 4)
        phv["small"] = 0xFF
        assert phv["small"] == 0xF

    def test_budget_enforced(self):
        phv = Phv(budget_bits=96)
        phv.declare("a", 64)
        with pytest.raises(ResourceError, match="PHV"):
            phv.declare("b", 64)

    def test_duplicate_declaration_raises(self):
        phv = Phv(budget_bits=128)
        phv.declare("a", 8)
        with pytest.raises(ConfigurationError):
            phv.declare("a", 8)

    def test_undeclared_assignment_raises(self):
        phv = Phv(budget_bits=128)
        with pytest.raises(ConfigurationError):
            phv["ghost"] = 1

    def test_contains_and_used_bits(self):
        phv = Phv(budget_bits=128)
        phv.declare("a", 8)
        assert "a" in phv
        assert "b" not in phv
        assert phv.used_bits == 8


class TestPipeline:
    def test_stage_count_matches_model(self):
        pipe = Pipeline(MINI)
        assert len(pipe.stages) == MINI.stages

    def test_out_of_range_stage_raises(self):
        pipe = Pipeline(MINI)
        with pytest.raises(ResourceError):
            pipe.stage(MINI.stages)

    def test_program_runs_and_counts(self):
        pipe = Pipeline(MINI)

        def drop_odd(stage, phv):
            if phv["value"] % 2 == 1:
                phv.prune = True

        pipe.install(0, drop_odd)
        forwarded = 0
        for value in range(10):
            phv = pipe.new_phv()
            phv.declare("value", 64, value)
            if pipe.process(phv):
                forwarded += 1
        assert forwarded == 5
        assert pipe.stats.packets == 10
        assert pipe.stats.pruned == 5
        assert pipe.stats.pruning_rate == 0.5

    def test_prune_mark_does_not_stop_later_stages(self):
        # The paper: drops take effect at the end of the pipeline.
        pipe = Pipeline(MINI)
        seen_in_stage2 = []

        def mark(stage, phv):
            phv.prune = True

        def record(stage, phv):
            seen_in_stage2.append(phv["value"])

        pipe.install(0, mark)
        pipe.install(1, record)
        phv = pipe.new_phv()
        phv.declare("value", 64, 42)
        assert pipe.process(phv) is False
        assert seen_in_stage2 == [42]

    def test_stateful_distinct_on_pipeline(self):
        # A one-row, two-column DISTINCT cache built from raw registers:
        # demonstrates the rolling replacement runs within ALU budgets.
        pipe = Pipeline(ResourceModel(stages=2, alus_per_stage=2,
                                      sram_bits_per_stage=1024,
                                      tcam_entries=16, phv_bits=256))
        for i in range(2):
            pipe.stage(i).alloc_register("cell", size=1)

        def make_stage_program(index):
            def program(stage, phv):
                if phv["hit"]:
                    return
                value, carry = phv["value"], phv["carry"]
                stored = stage.reg_read_modify_write(
                    "cell", 0, lambda old: old if old == value else carry
                )
                if stored == value:
                    phv["hit"] = 1
                    phv.prune = True
                else:
                    phv["carry"] = stored

            return program

        for i in range(2):
            pipe.install(i, make_stage_program(i))

        def send(value):
            phv = pipe.new_phv()
            phv.declare("value", 64, value)
            phv.declare("carry", 64, value)
            phv.declare("hit", 1, 0)
            return pipe.process(phv)

        assert send(7) is True   # new value: forwarded
        assert send(7) is False  # duplicate: pruned
        assert send(8) is True
        assert send(7) is False  # still cached in second cell
