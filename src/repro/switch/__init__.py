"""PISA programmable-switch simulator: stages, PHV, TCAM, resource model.

This package is the hardware substrate the pruning algorithms compile to.
It enforces the constraints of the paper's §2.2 — limited stages/ALUs
(:mod:`stage`, :mod:`pipeline`), limited memory and PHV bits
(:mod:`resources`), no multiply or divide (:mod:`tcam`'s log table
stands in for one) — and reproduces Table 2's per-algorithm footprints
(:mod:`compiler`).
"""

from .compiler import (
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
from .pipeline import Phv, Pipeline, PipelineStats, StageProgram
from .programs import (
    PipelineCountMin,
    PipelineDistinct,
    PipelineGroupBy,
    PipelineTopNDeterministic,
)
from .resources import KB, MB, MINI, TOFINO, TOFINO2, ResourceFootprint, ResourceModel
from .stage import RegisterArray, Stage
from .tcam import LogApproxTable, TcamEntry, TcamTable, build_msb_table, msb_rule_count

__all__ = [
    "footprint_distinct",
    "footprint_filtering",
    "footprint_groupby",
    "footprint_having",
    "footprint_join",
    "footprint_skyline",
    "footprint_topn_det",
    "footprint_topn_rand",
    "pack",
    "table2",
    "Phv",
    "Pipeline",
    "PipelineCountMin",
    "PipelineDistinct",
    "PipelineGroupBy",
    "PipelineTopNDeterministic",
    "PipelineStats",
    "StageProgram",
    "KB",
    "MB",
    "MINI",
    "TOFINO",
    "TOFINO2",
    "ResourceFootprint",
    "ResourceModel",
    "RegisterArray",
    "Stage",
    "LogApproxTable",
    "TcamEntry",
    "TcamTable",
    "build_msb_table",
    "msb_rule_count",
]
