"""The switch pipeline: PHV, ordered stages, and program execution.

A *program* is a list of per-stage callables installed at control-plane
time.  At packet time the pipeline walks the stages in order, handing each
callable the stage (for metered register access) and the packet's PHV.
A stage program may set ``phv.prune = True``; per the paper, the drop
itself happens at the end of the pipeline, so later stages still execute
(this mirrors SKYLINE's "mark for pruning, drop at pipeline end").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError, ResourceError
from ..obs import Counter, MetricsRegistry, ratio
from .resources import ResourceModel, TOFINO
from .stage import Stage

StageProgram = Callable[[Stage, "Phv"], None]


class Phv:
    """Packet header vector: the bounded bag of bits crossing stages.

    Fields are named integers with declared widths; the total width is
    charged against the model's PHV budget at declaration time.  This is
    the §2.2 "10-20 bytes across stages" constraint made concrete.
    """

    def __init__(self, budget_bits: int) -> None:
        self._budget_bits = budget_bits
        self._widths: Dict[str, int] = {}
        self._values: Dict[str, int] = {}
        self._used_bits = 0
        self.prune = False

    def declare(self, name: str, width_bits: int, value: int = 0) -> None:
        """Declare a field, enforcing the cumulative bit budget."""
        if name in self._widths:
            raise ConfigurationError(f"PHV field {name!r} already declared")
        if width_bits <= 0:
            raise ConfigurationError(f"PHV field width must be positive, got {width_bits}")
        if self._used_bits + width_bits > self._budget_bits:
            raise ResourceError(
                f"PHV field {name!r} ({width_bits}b) exceeds budget: "
                f"{self._used_bits}/{self._budget_bits} bits already used"
            )
        self._widths[name] = width_bits
        self._values[name] = value & ((1 << width_bits) - 1)
        self._used_bits += width_bits

    def __getitem__(self, name: str) -> int:
        return self._values[name]

    def __setitem__(self, name: str, value: int) -> None:
        if name not in self._widths:
            raise ConfigurationError(f"PHV field {name!r} not declared")
        self._values[name] = value & ((1 << self._widths[name]) - 1)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    @property
    def used_bits(self) -> int:
        """Total declared field width (running counter; O(1))."""
        return self._used_bits


class PipelineStats:
    """Packet counters — a thin view over registry samples.

    Only ``packets`` and ``pruned`` are stored; ``forwarded`` is derived
    (``packets - pruned``), so the three can no longer drift apart the
    way independently incremented fields could.
    """

    __slots__ = ("_packets", "_pruned")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self._packets = registry.counter(
            "pipeline_packets_total", "Packets run through the pipeline."
        )
        self._pruned = registry.counter(
            "pipeline_packets_pruned_total", "Packets marked prune at egress."
        )

    @property
    def packets(self) -> int:
        """Packets run through the pipeline."""
        return self._packets.value

    @property
    def pruned(self) -> int:
        """Packets dropped at the end of the pipeline."""
        return self._pruned.value

    @property
    def forwarded(self) -> int:
        """Packets that left the pipeline (derived: packets - pruned)."""
        return self._packets.value - self._pruned.value

    @property
    def pruning_rate(self) -> float:
        """Fraction of processed packets that were pruned."""
        return ratio(self._pruned.value, self._packets.value)

    def record(self, pruned: bool) -> None:
        """Account one packet's egress decision."""
        self._packets.inc()
        if pruned:
            self._pruned.inc()

    def __repr__(self) -> str:
        return f"PipelineStats(packets={self.packets}, pruned={self.pruned})"


class Pipeline:
    """An ordered set of stages sized by a :class:`ResourceModel`."""

    def __init__(self, model: ResourceModel = TOFINO) -> None:
        self.model = model
        self.stages: List[Stage] = [
            Stage(i, model.alus_per_stage, model.sram_bits_per_stage)
            for i in range(model.stages)
        ]
        self._programs: Dict[int, List[StageProgram]] = {}
        self.metrics = MetricsRegistry()
        self.stats = PipelineStats(self.metrics)
        self._stage_counters: Dict[int, Counter] = {}
        self._phv_bits = self.metrics.gauge(
            "phv_used_bits", "Widest PHV observed, in declared field bits."
        )

    def stage(self, index: int) -> Stage:
        """Stage by position; raises for indexes beyond the hardware."""
        if not 0 <= index < len(self.stages):
            raise ResourceError(
                f"stage {index} requested but hardware has {len(self.stages)} stages"
            )
        return self.stages[index]

    def install(self, stage_index: int, program: StageProgram) -> None:
        """Install a per-stage program (control-plane time)."""
        self.stage(stage_index)  # bounds check
        self._programs.setdefault(stage_index, []).append(program)
        if stage_index not in self._stage_counters:
            self._stage_counters[stage_index] = self.metrics.counter(
                "pipeline_stage_packets_total",
                "Packets seen by each programmed stage.",
                stage=stage_index,
            )

    def new_phv(self) -> Phv:
        """A fresh PHV bound to this hardware's bit budget."""
        return Phv(self.model.phv_bits)

    def process(self, phv: Phv) -> bool:
        """Run one packet through every stage; return True if forwarded.

        The prune mark only takes effect at the end of the pipeline, as on
        real hardware where the drop is an egress decision.
        """
        for stage in self.stages:
            stage.begin_packet()
            programs = self._programs.get(stage.index)
            if programs:
                self._stage_counters[stage.index].inc()
                for program in programs:
                    program(stage, phv)
        if phv.used_bits > self._phv_bits.value:
            self._phv_bits.set(phv.used_bits)
        self.stats.record(phv.prune)
        return not phv.prune
