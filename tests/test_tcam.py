"""Tests for TCAM tables and the APH log machinery (repro.switch.tcam)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.switch.tcam import (
    LogApproxTable,
    TcamTable,
    build_msb_table,
    msb_rule_count,
)


class TestTcamTable:
    def test_exact_rule_matches(self):
        table = TcamTable(width_bits=8)
        table.add(value=0b1010, mask=0xFF, action=1)
        assert table.lookup(0b1010) == 1
        assert table.lookup(0b1011) is None

    def test_wildcard_bits(self):
        table = TcamTable(width_bits=8)
        table.add(value=0b1000, mask=0b1000, action=5)  # match any with bit 3
        assert table.lookup(0b1001) == 5
        assert table.lookup(0b0001) is None

    def test_priority_order(self):
        table = TcamTable(width_bits=8)
        table.add(value=0, mask=0, action=1, priority=0)  # match-all fallback
        table.add(value=0b1, mask=0b1, action=2, priority=10)
        assert table.lookup(0b1) == 2
        assert table.lookup(0b0) == 1

    def test_add_inserts_by_priority_keeping_arrival_order_among_equals(self):
        table = TcamTable(width_bits=8)
        for action, priority in enumerate([1, 3, 1, 2, 3, 0]):
            table.add(value=0, mask=0, action=action, priority=priority)
        assert [entry.action for entry in table._entries] == [1, 4, 3, 0, 2, 5]
        assert table.lookup(0b1) == 1

    def test_len(self):
        table = TcamTable()
        table.add(0, 0, 0)
        assert len(table) == 1

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            TcamTable(width_bits=0)


class TestMsbTable:
    def test_matches_bit_length(self):
        table = build_msb_table(64)
        for value in (1, 2, 3, 7, 8, 1023, 1024, (1 << 40) + 5, 1 << 63):
            assert table.lookup(value) == value.bit_length() - 1

    def test_rule_count(self):
        assert len(build_msb_table(32)) == 32
        assert msb_rule_count(64) == 64

    def test_zero_has_no_match(self):
        assert build_msb_table(16).lookup(0) is None


class TestLogApproxTable:
    def test_small_values_near_exact(self):
        table = LogApproxTable(beta=256)
        for a in (1, 2, 3, 100, 65535):
            expected = 256 * math.log2(a)
            assert abs(table.lookup(a) - expected) <= 0.5 if a > 1 else True

    def test_lookup_bounds(self):
        table = LogApproxTable()
        with pytest.raises(UnsupportedOperationError):
            table.lookup(0)
        with pytest.raises(UnsupportedOperationError):
            table.lookup(1 << 16)

    def test_approx_log_small_equals_lookup(self):
        table = LogApproxTable(beta=256)
        assert table.approx_log(1000) == table.lookup(1000)

    def test_approx_log_wide_values(self):
        table = LogApproxTable(beta=256)
        # Dropping low bits perturbs the value by at most 1 + 2^-15, and
        # rounding the table output adds 0.5 / beta on the log.
        relative = 2.0 ** -(table.INPUT_BITS - 1) + 0.5 / 256
        for value in (1 << 16, (1 << 20) + 12345, (1 << 40) + 999, (1 << 63) + 1):
            approx = table.approx_log(value) / 256
            exact = math.log2(value)
            assert abs(approx - exact) <= exact * relative + 0.01

    def test_approx_log_monotone(self):
        table = LogApproxTable(beta=256)
        values = [1, 5, 100, 70_000, 1 << 20, 1 << 33, 1 << 50]
        logs = [table.approx_log(v) for v in values]
        assert logs == sorted(logs)

    def test_nonpositive_raises(self):
        table = LogApproxTable()
        with pytest.raises(UnsupportedOperationError):
            table.approx_log(0)
        with pytest.raises(UnsupportedOperationError):
            table.approx_log_batch(np.array([3, 0]))

    @pytest.mark.parametrize("beta", [1 << 8, 37])
    def test_shared_table_is_the_formula_element_for_element(self, beta):
        table = LogApproxTable(beta=beta).table
        assert table is LogApproxTable(beta=beta).table  # built once per beta
        assert not table.flags.writeable
        assert table[1:].tolist() == [
            round(beta * math.log2(a)) for a in range(1, 2**16)
        ]

    def test_approx_log_batch_equals_scalar(self):
        table = LogApproxTable(beta=256)
        values = list(range(1, 2**20 + 1))
        values += [2**16 - 1, 2**16, 2**53 - 1, 2**53 + 1, 2**62, 2**63 - 1]
        batch = table.approx_log_batch(np.array(values, dtype=np.int64))
        assert batch.tolist() == [table.approx_log(value) for value in values]

    def test_resource_accounting(self):
        table = LogApproxTable()
        assert table.sram_bits() == (1 << 16) * 32
        assert table.tcam_entries() == 64

    def test_beta_scales_precision(self):
        values = (3, 1000, 1 << 16, (1 << 20) + 12345, (1 << 40) + 999)

        def worst_error(beta):
            table = LogApproxTable(beta=beta)
            return max(abs(table.approx_log(v) / beta - math.log2(v)) for v in values)

        assert worst_error(1 << 12) < worst_error(4)

    def test_invalid_beta(self):
        with pytest.raises(ConfigurationError):
            LogApproxTable(beta=0)
