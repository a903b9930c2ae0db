"""Remediation action planning: what to change when a detector fires.

Each planner maps a ``(detector, op_kind)`` pair plus the signature's
*effective* configuration to one candidate :class:`RemediationAction` —
a new :class:`~repro.engine.cluster.ClusterConfig` built with
``dataclasses.replace`` (the live config is never mutated).  Three
action families exist:

* ``"sketch-resize"`` — grow a sketch within the footprint budget:
  cache-matrix rows (DISTINCT / GROUP BY / randomized TOP N), Bloom
  ``m``/``k`` bits (JOIN), Count-Min ``w`` width (HAVING).  Every resize
  is re-validated through the memoized compiler
  (:func:`~repro.switch.compiler.check_fits_cached`) before it is
  offered; a resize that would not fit the resource model is simply not
  planned.
* ``"variant-swap"`` — exchange the pruner variant: deterministic ↔
  randomized TOP N, LRU ↔ FIFO cache-matrix replacement.
* ``"hot-swap"`` — not a separate knob: an applied action whose new
  configuration flips the ``topn_randomized`` / ``distinct_fingerprint``
  axes swaps the pruner variant, and is additionally counted under this
  label.

Exactness never depends on these choices — a Cheetah pruner is free to
forward more than necessary — so a *wrong* action costs performance,
never correctness; the engine's canary/rollback guardrails bound that
cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..errors import ResourceError
from ..switch.compiler import (
    check_fits_cached,
    footprint_distinct,
    footprint_groupby,
    footprint_having,
    footprint_join,
    footprint_topn_rand,
)

#: Multiplier sketch resizes grow (or, under a forced shrink, divide) by.
RESIZE_FACTOR = 2

#: Detectors that indicate an over-full / colliding sketch (grow it).
_CAPACITY_DETECTORS = (
    "pruning_collapse",
    "bloom_fill_growth",
    "bloom_fpr_alarm",
    "cache_fill_alarm",
)


@dataclass(frozen=True)
class RemediationAction:
    """One planned recovery step for a degraded signature."""

    #: Action family: "sketch-resize" | "variant-swap".
    action: str
    #: The config the engine stages when applying this action.
    config: object
    #: Human-readable what/why ("distinct_rows 512 -> 1024").
    detail: str
    #: Which health signal the canary window judges this action by.
    metric: str
    #: True when larger metric values mean improvement (pruning ratio);
    #: False for error-like signals (bloom FPR, fill ratio).
    higher_is_better: bool = True
    #: True when applying the new config swaps the pruner variant (a
    #: hot-swap).
    hot_swap: bool = False


def _fits(footprint, model) -> bool:
    """Whether a candidate footprint fits (memoized compiler verdict)."""
    try:
        check_fits_cached(footprint, model)
    except ResourceError:
        return False
    return True


def _resize_distinct(config) -> Optional[RemediationAction]:
    rows = config.distinct_rows * RESIZE_FACTOR
    if not _fits(
        footprint_distinct(
            cols=config.distinct_cols,
            rows=rows,
            policy=config.distinct_policy,
            model=config.model,
        ),
        config.model,
    ):
        return None
    return RemediationAction(
        action="sketch-resize",
        config=replace(config, distinct_rows=rows),
        detail=f"distinct_rows {config.distinct_rows} -> {rows}",
        metric="pruning_ratio",
    )


def _swap_distinct_policy(config) -> RemediationAction:
    policy = "fifo" if config.distinct_policy == "lru" else "lru"
    return RemediationAction(
        action="variant-swap",
        config=replace(config, distinct_policy=policy),
        detail=f"distinct_policy {config.distinct_policy} -> {policy}",
        metric="pruning_ratio",
    )


def _plan_topn(config) -> Optional[RemediationAction]:
    if not config.topn_randomized:
        # The threshold ladder was sized for a distribution that no
        # longer holds; the randomized matrix is distribution-free.
        return RemediationAction(
            action="variant-swap",
            config=replace(config, topn_randomized=True),
            detail="topn variant deterministic -> randomized",
            metric="pruning_ratio",
            hot_swap=True,
        )
    rows = config.topn_rows * RESIZE_FACTOR
    if not _fits(footprint_topn_rand(rows=rows), config.model):
        return None
    return RemediationAction(
        action="sketch-resize",
        config=replace(config, topn_rows=rows),
        detail=f"topn_rows {config.topn_rows} -> {rows}",
        metric="pruning_ratio",
    )


def _resize_groupby(config) -> Optional[RemediationAction]:
    rows = config.groupby_rows * RESIZE_FACTOR
    if not _fits(footprint_groupby(rows=rows), config.model):
        return None
    return RemediationAction(
        action="sketch-resize",
        config=replace(config, groupby_rows=rows),
        detail=f"groupby_rows {config.groupby_rows} -> {rows}",
        metric="pruning_ratio",
    )


def _resize_join(config, detector: str) -> Optional[RemediationAction]:
    bits = config.join_memory_bits * RESIZE_FACTOR
    if not _fits(
        footprint_join(memory_bits=bits, variant=config.join_variant),
        config.model,
    ):
        return None
    metric = "bloom_fpr" if detector == "bloom_fpr_alarm" else "bloom_fill"
    return RemediationAction(
        action="sketch-resize",
        config=replace(config, join_memory_bits=bits),
        detail=f"join_memory_bits {config.join_memory_bits} -> {bits}",
        metric=metric,
        higher_is_better=False,
    )


def _resize_having(config) -> Optional[RemediationAction]:
    width = config.having_width * RESIZE_FACTOR
    if not _fits(
        footprint_having(width=width, model=config.model), config.model
    ):
        return None
    return RemediationAction(
        action="sketch-resize",
        config=replace(config, having_width=width),
        detail=f"having_width {config.having_width} -> {width}",
        metric="pruning_ratio",
    )


def plan_action(
    detector: str, op_kind: Optional[str], config
) -> Optional[RemediationAction]:
    """The standard planner: one candidate action, or None.

    ``detector`` is the firing health detector, ``op_kind`` the
    signature's operator kind (from the health store), ``config`` the
    signature's *effective* configuration (base or current override).
    ``None`` means no safe recovery is known — the engine records the
    detection as unactionable rather than guessing.
    """
    if detector not in _CAPACITY_DETECTORS or op_kind is None:
        return None
    if op_kind == "distinct":
        action = _resize_distinct(config)
        # A cache that cannot grow further can still change its
        # replacement dynamics under drift.
        return action if action is not None else _swap_distinct_policy(config)
    if op_kind == "topn":
        return _plan_topn(config)
    if op_kind == "groupby":
        return _resize_groupby(config)
    if op_kind == "join":
        return _resize_join(config, detector)
    if op_kind == "having":
        return _resize_having(config)
    return None
