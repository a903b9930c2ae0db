"""Pruning on a DAG of workers (paper §9).

Large deployments plan queries as a DAG: each worker level consumes the
previous level's output.  Cheetah runs at *every edge* where data moves:
each edge gets a dedicated port, its own pruner, and a slice of the
switch's resources, allocated with the same §6 packing machinery.

:class:`EdgePruning` describes one edge; :class:`WorkerDag` validates
that all edges pack onto the given switch and threads a stream through
the levels, recording per-edge volumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.base import PruneDecision, Pruner
from ..errors import ConfigurationError
from ..switch.compiler import pack
from ..switch.resources import TOFINO, ResourceFootprint


@dataclass
class EdgePruning:
    """One DAG edge: a name and its pruner."""

    name: str
    pruner: Pruner


@dataclass
class EdgeReport:
    """Volumes observed on one edge during a run."""

    name: str
    arrived: int = 0
    pruned: int = 0
    emitted: int = 0


class WorkerDag:
    """A linear chain of worker levels with per-edge switch pruning.

    (A general DAG reduces to chains per path; the resource check is the
    part that matters — every edge's program must co-reside on the
    switch, which :meth:`validate` enforces via §6 packing.)
    """

    def __init__(self, edges: Sequence[EdgePruning]) -> None:
        if not edges:
            raise ConfigurationError("a worker DAG needs at least one edge")
        names = [edge.name for edge in edges]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate edge names: {names}")
        self.edges = list(edges)

    def validate(self) -> ResourceFootprint:
        """Pack every edge's program on the switch; raises ResourceError."""
        return pack([edge.pruner.footprint() for edge in self.edges], TOFINO)

    def run(self, stream: Sequence[object]) -> tuple:
        """Thread ``stream`` through every edge; returns (output, reports)."""
        reports = [EdgeReport(edge.name) for edge in self.edges]
        current: List[object] = list(stream)
        for edge, report in zip(self.edges, reports):
            next_level: List[object] = []
            for entry in current:
                report.arrived += 1
                if edge.pruner.process(entry) is PruneDecision.PRUNE:
                    report.pruned += 1
                    continue
                next_level.append(entry)
                report.emitted += 1
            current = next_level
        return current, reports

    def reset(self) -> None:
        """Clear every edge pruner's state."""
        for edge in self.edges:
            edge.pruner.reset()
