"""Ternary CAM tables and the log-approximation machinery behind APH.

Appendix D: SKYLINE's Approximate Product Heuristic rewrites a product of
dimensions as a sum of logarithms, then approximates each logarithm with
(1) a TCAM lookup that finds the most significant set bit of the value and
(2) an exact-match table of 2^16 entries mapping a 16-bit mantissa window
to ``round(beta * log2(a))``.  Both structures are modeled here with their
entry counts, so the compiler can charge them against the resource model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError, UnsupportedOperationError

_DEFAULT_BETA = 1 << 8


@dataclass(frozen=True)
class TcamEntry:
    """One ternary rule: match ``(key & mask) == value``, highest priority wins."""

    value: int
    mask: int
    action: int
    priority: int = 0


class TcamTable:
    """A priority-ordered ternary match table."""

    def __init__(self, width_bits: int = 64) -> None:
        if not 1 <= width_bits <= 64:
            raise ConfigurationError(f"TCAM width must be in [1, 64], got {width_bits}")
        self.width_bits = width_bits
        self._entries: List[TcamEntry] = []

    def add(self, value: int, mask: int, action: int, priority: int = 0) -> None:
        """Install a rule; higher ``priority`` matches first."""
        # Behind every rule of at least this priority: no re-sort per insert.
        index = sum(entry.priority >= priority for entry in self._entries)
        self._entries.insert(index, TcamEntry(value & mask, mask, action, priority))

    def lookup(self, key: int) -> Optional[int]:
        """Return the action of the highest-priority matching rule, or None."""
        for entry in self._entries:
            if key & entry.mask == entry.value:
                return entry.action
        return None

    def __len__(self) -> int:
        return len(self._entries)


def build_msb_table(width_bits: int = 64) -> TcamTable:
    """Build the MSB-finder: one prefix rule per bit position.

    Rule ``i`` matches any key whose bit ``i`` is set and all higher bits
    are clear; its action is ``i``.  This is the single-lookup
    ``floor(log2 z)`` of Appendix D, costing ``width_bits`` TCAM entries.
    """
    table = TcamTable(width_bits)
    for i in range(width_bits):
        # Match: bit i set, bits above i all zero, bits below i wildcard.
        mask = ((1 << (width_bits - i)) - 1) << i
        value = 1 << i
        table.add(value=value, mask=mask, action=i, priority=i)
    return table


def msb_rule_count(width_bits: int = 64) -> int:
    """TCAM entries consumed by the MSB finder (32 or 64 in the paper)."""
    return width_bits


@lru_cache(maxsize=8)
def _log_table(beta: int) -> np.ndarray:
    """``a -> round(beta * log2 a)`` over the 16-bit inputs (entry 0, the log
    of 0, is an unused 0), built once per ``beta`` and shared read-only."""
    logs = [round(beta * math.log2(a)) for a in range(1, LogApproxTable.ENTRY_COUNT)]
    table = np.array([0] + logs, dtype=np.int64)
    table.setflags(write=False)
    return table


class LogApproxTable:
    """The 2^16-entry exact-match table ``a -> round(beta * log2 a)``.

    ``beta`` trades accuracy for representation width: with ``beta = 2^8``
    the image of a 16-bit input fits comfortably in 32 bits.  Values wider
    than 16 bits are handled by the MSB window trick of Appendix D
    (:meth:`approx_log`): look up the 16 bits starting at the leading one
    and add ``beta * (msb - 15)`` for the dropped shift.
    """

    INPUT_BITS = 16
    ENTRY_COUNT = 1 << INPUT_BITS

    def __init__(self, beta: int = _DEFAULT_BETA) -> None:
        if beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {beta}")
        self.beta = beta
        #: The table as a read-only ``int64`` array, indexed by input.
        self.table = _log_table(beta)
        self._msb = build_msb_table(64)

    def lookup(self, mantissa: int) -> int:
        """Exact-match lookup for a 16-bit value."""
        if not 0 < mantissa < self.ENTRY_COUNT:
            raise UnsupportedOperationError(
                f"log table input must be in [1, 2^16), got {mantissa}"
            )
        return int(self.table[mantissa])

    def approx_log(self, value: int) -> int:
        """Approximate ``beta * log2(value)`` for any positive 64-bit value.

        For values below 2^16 this is one table lookup.  Wider values use
        the TCAM MSB finder to select the 16-bit window starting at the
        leading one bit, then shift-correct: ``log2(z) ~ log2(z') + (msb-15)``
        where ``z'`` is the window read as a 16-bit integer.
        """
        if value <= 0:
            raise UnsupportedOperationError("approximate log of non-positive value")
        msb = self._msb.lookup(value)
        assert msb is not None  # every positive value matches a prefix rule
        shift = max(msb - (self.INPUT_BITS - 1), 0)
        return int(self.table[value >> shift]) + self.beta * shift

    def approx_log_batch(self, values) -> np.ndarray:
        """:meth:`approx_log` over an array of positive ``int64`` values.

        The MSB is integer-exact over the whole range: the float64
        exponent overshoots by one where the conversion rounds up to a
        power of two (possible above 2^53), which the shift test undoes.
        """
        values = np.asarray(values, dtype=np.int64)
        if (values <= 0).any():
            raise UnsupportedOperationError("approximate log of non-positive value")
        msb = np.frexp(values.astype(np.float64))[1].astype(np.int64) - 1
        msb -= (values >> msb) == 0
        shift = np.maximum(msb - (self.INPUT_BITS - 1), 0)
        return self.table[values >> shift] + self.beta * shift

    def sram_bits(self) -> int:
        """SRAM footprint of the exact-match table (Table 2: ``2^16 x 32b``)."""
        return self.ENTRY_COUNT * 32

    def tcam_entries(self) -> int:
        """TCAM entries for the MSB finder."""
        return msb_rule_count(64)
