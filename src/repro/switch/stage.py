"""Match-action stages: registers and ALU metering.

A :class:`Stage` owns disjoint register memory (the PISA property that
stage memories are private) and a bounded number of stateful ALU slots.
Packet-time register access goes through
:meth:`Stage.reg_read_modify_write`, which meters ALU usage so a program
that needs more same-stage operations than the hardware has simply
cannot run.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..errors import ConfigurationError, ResourceError

_MASK64 = (1 << 64) - 1


class RegisterArray:
    """A fixed-size array of fixed-width registers within one stage."""

    def __init__(self, name: str, size: int, width_bits: int = 64) -> None:
        if size <= 0:
            raise ConfigurationError(f"register array size must be positive, got {size}")
        if not 1 <= width_bits <= 64:
            raise ConfigurationError(f"register width must be in [1,64], got {width_bits}")
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self._cells = [0] * size

    def read(self, index: int) -> int:
        """Read the register at ``index``."""
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        """Write ``value`` (truncated to the register width) at ``index``."""
        self._cells[index] = value & self._mask

    def clear(self) -> None:
        """Zero the whole array."""
        self._cells = [0] * self.size

    @property
    def sram_bits(self) -> int:
        """SRAM consumed by this array."""
        return self.size * self.width_bits


class Stage:
    """One pipeline stage: private SRAM and ALU slots."""

    def __init__(self, index: int, alus: int, sram_bits: int) -> None:
        self.index = index
        self.alu_budget = alus
        self.sram_budget_bits = sram_bits
        self._arrays: Dict[str, RegisterArray] = {}
        self._sram_used = 0
        self._alu_ops_this_packet = 0

    # -- control-plane-time allocation ------------------------------------

    def alloc_register(self, name: str, size: int) -> RegisterArray:
        """Allocate a 64-bit register array, charging this stage's SRAM budget."""
        if name in self._arrays:
            raise ConfigurationError(f"register array {name!r} already exists in stage {self.index}")
        array = RegisterArray(name, size, width_bits=64)
        if self._sram_used + array.sram_bits > self.sram_budget_bits:
            raise ResourceError(
                f"stage {self.index}: register {name!r} needs {array.sram_bits} bits, "
                f"only {self.sram_budget_bits - self._sram_used} free"
            )
        self._sram_used += array.sram_bits
        self._arrays[name] = array
        return array

    # -- packet-time operations -------------------------------------------

    def begin_packet(self) -> None:
        """Reset the per-packet ALU meter (called by the pipeline)."""
        self._alu_ops_this_packet = 0

    def _meter_alu(self) -> None:
        self._alu_ops_this_packet += 1
        if self._alu_ops_this_packet > self.alu_budget:
            raise ResourceError(
                f"stage {self.index}: packet used {self._alu_ops_this_packet} ALU ops, "
                f"budget is {self.alu_budget}"
            )

    def reg_read_modify_write(
        self, name: str, index: int, update: Callable[[int], int]
    ) -> int:
        """One stateful-ALU op: read, transform, write back; returns old value.

        This models the single read-modify-write a stateful ALU performs per
        packet per register — one metered operation, not two.
        """
        self._meter_alu()
        array = self._arrays[name]
        old = array.read(index)
        array.write(index, update(old))
        return old
