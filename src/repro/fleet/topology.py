"""The ToR→spine fabric the fleet serves from.

The paper's deployment story (§2, §8) is not one switch: it is a rack-
scale fabric where top-of-rack (ToR) switches sit on the data path of
their servers and spine switches aggregate the racks.  A
:class:`FabricTopology` is the fleet layer's description of that fabric:
a fully-connected two-tier fabric, every ToR uplinked into every spine,
each switch carrying the per-pipeline
:class:`~repro.switch.resources.ResourceModel` its replica compiles
against.

Placement hashes table names over the ToR tier with the multiswitch
partitioner (:func:`~repro.extensions.multiswitch.hash_partition`), so
fleet placement and §9 stream partitioning agree on their hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError
from ..extensions.multiswitch import hash_partition
from ..switch.resources import TOFINO, TOFINO2, ResourceModel

_TIERS = ("tor", "spine")


@dataclass(frozen=True)
class SwitchSpec:
    """One switch in the fabric: a name, a tier, and a resource budget.

    ``model`` is the per-pipeline capacity every program placed on this
    switch must fit, so a replica bound to a small-budget ToR really is
    constrained to small-budget programs.
    """

    name: str
    tier: str
    model: ResourceModel = TOFINO

    def __post_init__(self) -> None:
        """Reject empty names and unknown tiers at construction."""
        if not self.name:
            raise ConfigurationError("switch name must be non-empty")
        if self.tier not in _TIERS:
            raise ConfigurationError(
                f"switch {self.name!r} tier must be one of {_TIERS}, "
                f"got {self.tier!r}"
            )


class FabricTopology:
    """A fully-connected two-tier fabric; build one with :meth:`two_tier`."""

    def __init__(self, tors: List[SwitchSpec], spines: List[SwitchSpec]) -> None:
        self.tors = tors
        self.spines = spines

    @classmethod
    def two_tier(
        cls,
        tors: int = 2,
        spines: int = 1,
    ) -> "FabricTopology":
        """``tors`` Tofino ToRs × ``spines`` Tofino2 spines, every ToR uplinked
        into every spine.

        Switches are named ``tor-0..`` and ``spine-0..``.
        """
        if tors < 1 or spines < 1:
            raise ConfigurationError(
                f"two_tier needs tors >= 1 and spines >= 1, "
                f"got {tors} and {spines}"
            )
        return cls(
            [SwitchSpec(f"tor-{i}", "tor", TOFINO) for i in range(tors)],
            [SwitchSpec(f"spine-{j}", "spine", TOFINO2) for j in range(spines)],
        )

    def __len__(self) -> int:
        """The number of switches in the fabric (both tiers)."""
        return len(self.tors) + len(self.spines)

    def home_tor(self, table_name: str) -> SwitchSpec:
        """The ToR a table is *placed* on — its residency home.

        Hash placement over the ToR tier with the multiswitch
        partitioner: deterministic across processes and sessions (the
        library's splitmix-based hash, not Python's randomized one), so
        every router instance agrees where a table lives.
        """
        return self.tors[hash_partition(table_name, len(self.tors))]

    def describe(self) -> List[str]:
        """Human-readable fabric lines (the CLI's topology block)."""
        lines = [
            f"fabric   : {len(self.tors)} ToR + {len(self.spines)} spine "
            f"switches, {len(self.tors) * len(self.spines)} links"
        ]
        for specs, arrow, peers in (
            (self.tors, "->", self.spines),
            (self.spines, "<-", self.tors),
        ):
            names = ", ".join(peer.name for peer in peers)
            for spec in specs:
                lines.append(
                    f"  {spec.name:10s} stages={spec.model.stages:3d} "
                    f"sram={spec.model.total_sram_bits // (1024 * 1024 * 8):4d}MB "
                    f"{arrow} {names}"
                )
        return lines
