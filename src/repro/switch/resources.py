"""Hardware resource model of a PISA switch (paper §2.2, Table 2).

The simulator never runs "impossible" programs: every pruner is compiled
to a :class:`ResourceFootprint` and checked against a
:class:`ResourceModel` before execution.  The default profile mirrors the
constraints the paper cites for Tofino-class hardware: tens of pipeline
stages, ~10 ALUs per stage, under 100 MB of SRAM partitioned between
stages, 100K-300K TCAM entries, and a 10-20 byte metadata budget carried
between stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ResourceError

KB = 1024 * 8
MB = 1024 * KB


@dataclass(frozen=True)
class ResourceModel:
    """Capacity of one switch pipeline.

    Attributes
    ----------
    stages:
        Number of match-action stages usable by one program (the paper
        cites 12-60; the default models a Tofino's 12 ingress + 12 egress
        stages, which Table 2's SKYLINE defaults require).
    alus_per_stage:
        Stateful ALU slots per stage ("no more than ten comparisons in one
        stage for some switches").
    sram_bits_per_stage:
        Register SRAM per stage, in bits.
    tcam_entries:
        Total ternary CAM entries available to lookups.
    phv_bits:
        Packet header vector budget: parsed header + metadata bits carried
        across stages.

    Same-stage ALUs can address the same register array, as the Table 2
    rows marked ``*`` assume.
    """

    stages: int = 24
    alus_per_stage: int = 10
    sram_bits_per_stage: int = 4 * MB
    tcam_entries: int = 100_000
    phv_bits: int = 2048

    @property
    def total_sram_bits(self) -> int:
        """SRAM summed over all stages."""
        return self.stages * self.sram_bits_per_stage


#: Tofino-like default used throughout the evaluation.
TOFINO = ResourceModel()

#: A generously provisioned second-generation profile (Tofino 2-like).
TOFINO2 = ResourceModel(
    stages=20,
    alus_per_stage=16,
    sram_bits_per_stage=6 * MB,
    tcam_entries=300_000,
    phv_bits=4096,
)

#: A deliberately tiny profile for tests that must trigger ResourceError.
MINI = ResourceModel(
    stages=4,
    alus_per_stage=2,
    sram_bits_per_stage=64 * KB,
    tcam_entries=256,
    phv_bits=256,
)


@dataclass
class ResourceFootprint:
    """Resources consumed by one compiled pruning program.

    ``stage_sram_bits`` records per-logical-stage SRAM so the packer can
    co-locate light queries in one physical stage (§6).
    """

    stages: int = 0
    alus: int = 0
    sram_bits: int = 0
    tcam_entries: int = 0
    phv_bits: int = 0
    stage_sram_bits: Dict[int, int] = field(default_factory=dict)
    label: str = ""

    def merged_serial(self, other: "ResourceFootprint") -> "ResourceFootprint":
        """Place ``other`` after ``self`` in the pipeline (stages add)."""
        merged_map = dict(self.stage_sram_bits)
        for stage, bits in other.stage_sram_bits.items():
            merged_map[self.stages + stage] = bits
        return ResourceFootprint(
            stages=self.stages + other.stages,
            alus=self.alus + other.alus,
            sram_bits=self.sram_bits + other.sram_bits,
            tcam_entries=self.tcam_entries + other.tcam_entries,
            phv_bits=max(self.phv_bits, other.phv_bits),
            stage_sram_bits=merged_map,
            label=f"{self.label}+{other.label}" if self.label else other.label,
        )

    def merged_parallel(self, other: "ResourceFootprint") -> "ResourceFootprint":
        """Pack ``other`` beside ``self`` sharing physical stages (§6)."""
        merged_map = dict(self.stage_sram_bits)
        for stage, bits in other.stage_sram_bits.items():
            merged_map[stage] = merged_map.get(stage, 0) + bits
        return ResourceFootprint(
            stages=max(self.stages, other.stages),
            alus=self.alus + other.alus,
            sram_bits=self.sram_bits + other.sram_bits,
            tcam_entries=self.tcam_entries + other.tcam_entries,
            phv_bits=self.phv_bits + other.phv_bits,
            stage_sram_bits=merged_map,
            label=f"{self.label}|{other.label}" if self.label else other.label,
        )

    def signature(self) -> tuple:
        """A hashable identity of this footprint's resource demands.

        Two footprints with equal signatures fit exactly the same set of
        models, which is what makes the compiler's memoization sound.
        ``label`` is included so cached ``ResourceError`` messages name
        the right program.
        """
        return (
            self.stages,
            self.alus,
            self.sram_bits,
            self.tcam_entries,
            self.phv_bits,
            tuple(sorted(self.stage_sram_bits.items())),
            self.label,
        )

    def check_fits(self, model: ResourceModel) -> None:
        """Raise :class:`ResourceError` if this footprint exceeds ``model``."""
        problems = []
        if self.stages > model.stages:
            problems.append(f"stages {self.stages} > {model.stages}")
        per_stage_alus = self.alus / max(self.stages, 1)
        if per_stage_alus > model.alus_per_stage:
            problems.append(
                f"ALUs/stage {per_stage_alus:.1f} > {model.alus_per_stage}"
            )
        if self.sram_bits > model.total_sram_bits:
            problems.append(f"SRAM {self.sram_bits} > {model.total_sram_bits} bits")
        for stage, bits in self.stage_sram_bits.items():
            if bits > model.sram_bits_per_stage:
                problems.append(
                    f"stage {stage} SRAM {bits} > {model.sram_bits_per_stage} bits"
                )
        if self.tcam_entries > model.tcam_entries:
            problems.append(f"TCAM {self.tcam_entries} > {model.tcam_entries}")
        if self.phv_bits > model.phv_bits:
            problems.append(f"PHV {self.phv_bits} > {model.phv_bits} bits")
        if problems:
            label = self.label or "program"
            raise ResourceError(f"{label} does not fit: " + "; ".join(problems))

    def fits(self, model: ResourceModel) -> bool:
        """True when :meth:`check_fits` would not raise."""
        try:
            self.check_fits(model)
        except ResourceError:
            return False
        return True
