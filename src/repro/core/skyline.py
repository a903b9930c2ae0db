"""SKYLINE pruning via monotone score projection (paper §4.4, Appendix D).

The switch stores ``w`` points, each across two logical stages: one for
its score ``h(y)`` and one for its coordinates.  For an arriving point
``x``:

* if ``h(x) > h(y_i)`` the slot is replaced and the *evicted* point rides
  on in the packet (rolling minimum by score, so the stored points are the
  ``w`` highest-scoring seen so far — all true skyline members when ``h``
  is strictly monotone);
* otherwise, if ``y_i`` dominates the carried point it is marked for
  pruning — the mark only takes effect at the end of the pipeline, exactly
  the hardware constraint the paper calls out.

Score functions: ``sum`` (cheap, biased toward large-range dimensions),
``product`` (the ideal, *not* switch-implementable — kept as the reference
the heuristic approximates) and ``aph`` (Approximate Product Heuristic:
sum of TCAM/table-approximated logarithms; Appendix D).  A ``baseline``
policy that pins the first ``w`` points without replacement reproduces
Fig. 10b's "Baseline" line.

Because the highest-scoring points live in switch memory until evicted,
the end of stream drains them to the master (:meth:`SkylinePruner.drain`);
the master computes the exact skyline over forwarded + drained points.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import ge
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, UnsupportedOperationError
from ..switch.compiler import footprint_skyline
from ..switch.resources import ResourceFootprint
from ..switch.tcam import LogApproxTable
from .base import Guarantee, PruneDecision, Pruner

Point = Tuple[float, ...]


def weakly_dominates(a: Point, b: Point) -> bool:
    """True when ``a`` is at least ``b`` in every dimension (paper's test)."""
    return all(map(ge, a, b))


def score_sum(point: Point) -> float:
    """The SUM heuristic ``h_S(x) = sum(x_i)``."""
    return float(sum(point))


def score_product(point: Point) -> float:
    """The ideal product score ``h_P(x) = prod(x_i)`` (not switch-feasible).

    Coordinates are shifted by one so zero values keep monotonicity
    without zeroing the product.
    """
    result = 1.0
    for value in point:
        result *= value + 1.0
    return result


class AphScore:
    """Approximate Product Heuristic: sum of table-approximated logs.

    Uses the shared :class:`LogApproxTable` (2^16 exact-match entries plus
    the TCAM MSB finder) to approximate ``beta * log2(x_i + 1)`` per
    dimension and sums on the switch.  Monotone in every dimension, which
    is all correctness needs.
    """

    def __init__(self, beta: int = 1 << 8) -> None:
        self._table = LogApproxTable(beta=beta)

    def __call__(self, point: Point) -> float:
        total = 0
        for value in point:
            if value < 0:
                raise UnsupportedOperationError(
                    "APH requires non-negative coordinates (log domain)"
                )
            total += self._table.approx_log(int(value) + 1)
        return float(total)

    def batch(self, points: np.ndarray) -> np.ndarray:
        """:meth:`__call__` over the rows of a 2-D float point batch."""
        if not ((points >= 0) & (points < 2.0**62)).all():
            # Negative, NaN or past int64: the scalar walk raises or scores it.
            return np.array([self(row) for row in points.tolist()])
        logs = self._table.approx_log_batch(points.astype(np.int64) + 1)
        return logs.sum(axis=1).astype(np.float64)


_SCORES: dict = {
    "sum": lambda: score_sum,
    "product": lambda: score_product,
    "aph": AphScore,
}


class SkylinePruner(Pruner[Point]):
    """The w-point skyline pruner.

    Parameters
    ----------
    dims:
        Dimensionality ``D`` of the points (Table 2 default 2).
    points:
        Stored pruning points ``w`` (Table 2 default 10).
    score:
        ``"sum"``, ``"product"``, ``"aph"``, or ``"baseline"``.
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(self, dims: int = 2, points: int = 10, score: str = "sum") -> None:
        super().__init__()
        if dims < 1:
            raise ConfigurationError(f"dims must be >= 1, got {dims}")
        if points < 1:
            raise ConfigurationError(f"points must be >= 1, got {points}")
        self.dims = dims
        self.num_points = points
        self.score_name = score
        if score == "baseline":
            self._score: Callable[[Point], float] = score_sum
        elif score in _SCORES:
            self._score = _SCORES[score]()
        else:
            raise ConfigurationError(
                f"score must be one of {sorted(_SCORES) + ['baseline']}, got {score!r}"
            )
        self._reset_state()

    def _check_dims(self, point: Point) -> None:
        if len(point) != self.dims:
            raise ConfigurationError(
                f"point has {len(point)} dimensions, pruner configured for {self.dims}"
            )

    def _decide(self, point: Point, score: float) -> PruneDecision:
        """The slot walk for one point whose score is already computed."""
        carried: Optional[Point] = point
        carried_score = score
        marked = False
        slots, replaces = self._slots, self.score_name != "baseline"
        for i, slot in enumerate(slots):
            if slot is None:
                slots[i] = (carried_score, carried)
                carried = None
                break
            slot_score, slot_point = slot
            if replaces and carried_score > slot_score:
                # Replace: the higher-score point stays, evicted rides on.
                slots[i] = (carried_score, carried)
                carried, carried_score = slot_point, slot_score
                marked = False  # the packet now carries a different point
            elif weakly_dominates(slot_point, carried):
                marked = True
        if carried is None:
            # The arriving point was absorbed into an empty slot; nothing
            # to forward, but nothing was lost either (it will drain).
            decision = PruneDecision.PRUNE
        else:
            decision = PruneDecision.PRUNE if marked else PruneDecision.FORWARD
        self.stats.record(decision)
        self._last_carried = carried
        return decision

    def process(self, entry: Point) -> PruneDecision:
        self._check_dims(entry)
        carried = tuple(entry)
        return self._decide(carried, self._score(carried))

    def _score_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized score projection over a 2-D point batch.

        SUM and PRODUCT accumulate dimension by dimension (vectorized
        across rows, sequential across dims) so float rounding matches the
        scalar loops exactly; APH sums integer table lookups, which are
        exact in any order.
        """
        count = len(points)
        if self.score_name in ("sum", "baseline"):
            acc = np.zeros(count)
            for j in range(self.dims):
                acc += points[:, j]
            return acc
        if self.score_name == "product":
            acc = np.ones(count)
            for j in range(self.dims):
                acc *= points[:, j] + 1.0
            return acc
        return self._score.batch(points)

    def _floor(self) -> Optional[float]:
        """The score an arrival must exceed to replace a stored point;
        ``None`` while a slot is free (every arrival changes the state)."""
        if None in self._slots:
            return None
        if self.score_name == "baseline":
            return math.inf
        # A NaN score never loses a ``>`` comparison, so it sets no floor.
        low = min(self._slots)[0]  # min() passes over one unless it leads
        if low != low:
            low = min((s for s, _ in self._slots if s == s), default=math.inf)
        return low

    def process_batch(self, entries) -> np.ndarray:
        """Batch skyline: the slot walk runs only where the state moves.

        With every slot full, a point scoring no higher than any stored
        point replaces nothing: the state stays, the packet carries the
        point itself, and it is pruned iff a stored point weakly dominates
        it.  Only the other points, the movers (free-slot fills, then about
        ``w ln(n/w)`` of a shuffled stream), replay :meth:`_decide` in order;
        the rest are judged at once against the slots of their gap.
        :attr:`last_batch_carried` is the ``(n, D)`` array of the points
        the packets carried out, meaningful where the mask forwards.
        """
        count = len(entries)
        points = np.asarray(entries, dtype=np.float64)
        if count == 0:
            self.last_batch_carried = np.empty((0, self.dims))
            return np.ones(0, dtype=bool)
        if points.ndim != 2:
            raise ConfigurationError(
                "batch skyline entries must be fixed-dimension points"
            )
        self._check_dims(points[0])
        scores = self._score_batch(points)
        forward = np.zeros(count, dtype=bool)
        self.last_batch_carried = carried = points.copy()

        def walk(k: int, score: float) -> None:
            point = tuple(points[k].tolist())
            if self._decide(point, score) is PruneDecision.FORWARD:
                forward[k] = True
                carried[k] = self._last_carried

        # While a slot is free every arrival fills one.
        start = min(count, self._slots.count(None))
        for k in range(start):
            walk(k, float(scores[k]))
        if start == count:
            return forward
        still = np.arange(count) >= start
        # Per gap before each mover and after the last: its first position
        # and the slots' points while it streams.
        gaps, snapshots = [], []
        floor = self._floor()
        # The floor only rises, so this cut is a superset of the movers.
        rising = np.flatnonzero(scores[start:] > floor) + start
        for k, score in zip(rising.tolist(), scores[rising].tolist()):
            if score > floor:
                gaps.append(start)
                snapshots.extend(tuple(zip(*self._slots))[1])
                walk(k, score)
                still[k] = False
                start = k + 1
                floor = self._floor()
        gaps.append(start)
        snapshots.extend(tuple(zip(*self._slots))[1])
        if start < count:
            self._last_carried = tuple(points[-1].tolist())
        rest = np.flatnonzero(still)
        at = points[rest].T
        gap = np.searchsorted(gaps, rest, side="right") - 1
        flat = np.fromiter(chain.from_iterable(snapshots), dtype=np.float64)
        stored = flat.reshape(len(gaps), self.num_points, self.dims)
        dominated = np.zeros(len(rest), dtype=bool)
        for slot in stored.transpose(1, 2, 0):
            covers = slot[0][gap] >= at[0]
            for d in range(1, self.dims):
                covers &= slot[d][gap] >= at[d]
            dominated |= covers
        forward[rest] = ~dominated
        self.stats.record_batch(len(rest), int(dominated.sum()))
        return forward

    @property
    def last_carried(self) -> Optional[Point]:
        """The point the last forwarded packet actually carried.

        After a replacement the packet leaves the pipeline holding the
        evicted point, not the arriving one; the engine uses this to build
        the master's received set faithfully.
        """
        return self._last_carried

    def drain(self) -> List[Point]:
        """End-of-stream: the stored points, which the master must receive."""
        return [slot[1] for slot in self._slots if slot is not None]

    def footprint(self) -> ResourceFootprint:
        score = "aph" if self.score_name == "aph" else "sum"
        return footprint_skyline(dims=self.dims, points=self.num_points, score=score)

    def _reset_state(self) -> None:
        self._slots: List[Optional[Tuple[float, Point]]] = [None] * self.num_points
        self._last_carried: Optional[Point] = None
        #: Per-entry carried points of the last :meth:`process_batch` call.
        self.last_batch_carried = np.empty((0, self.dims))

    def _corrupt_state(self, rng) -> Optional[str]:
        """Replace a stored pruning point with a phantom dominator.

        A phantom point that dominates everything makes the pruner drop
        genuine skyline points, and — unlike the drained real points — it
        never reaches the master; hence the restart-passthrough policy.
        """
        occupied = [i for i, slot in enumerate(self._slots) if slot is not None]
        if not occupied:
            return None
        index = rng.choice(occupied)
        previous_score, previous_point = self._slots[index]
        phantom = tuple(float(1 << 40) for _ in range(self.dims))
        self._slots[index] = (float("inf"), phantom)
        return f"slot[{index}] {previous_point!r} -> phantom dominator"

    def observe_health(self) -> None:
        """Publish how many of the ``w`` point slots are occupied."""
        occupied = sum(1 for slot in self._slots if slot is not None)
        self.metrics.gauge(
            "skyline_slots_occupied",
            "Stored candidate points.",
            pruner=type(self).__name__,
        ).set(occupied)
        self.metrics.gauge(
            "skyline_slots_fill_ratio",
            "Occupied fraction of the w slots.",
            pruner=type(self).__name__,
        ).set(occupied / self.num_points)


#: A block of the master's sort-filter pass takes at least this many points.
_SFS_BLOCK = 256
#: Point pairs one dominance comparison holds at most (bounds its memory).
_PAIRS = 1 << 18


def _dominated(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Which rows of ``points`` a *different* row of ``others`` weakly
    dominates (rows are distinct: one equal everywhere is the point)."""
    out = np.zeros(len(points), dtype=bool)
    step = max(1, _PAIRS // max(1, len(others)))
    for lo in range(0, len(points), step):
        chunk = points[lo : lo + step, :, None]
        covers = np.ones((len(chunk), len(others)), dtype=bool)
        same = covers.copy()
        for d, column in enumerate(others.T):
            covers &= column >= chunk[:, d]
            same &= column == chunk[:, d]
        out[lo : lo + step] = (covers & ~same).any(axis=1)
    return out


def master_skyline(points) -> List[Point]:
    """The master's completion: exact skyline (maximization, all dims).

    ``points`` is tuples or an ``(n, D)`` array.  Block sort-filter-skyline
    over the distinct points (``-0.0 == 0.0``; a NaN point equals,
    dominates and is dominated by nothing), by a monotone score descending
    with blocks cut only where it drops: each block's skyline drops the
    later points it dominates in one vector pass.  Output is identical to
    block-nested loops; still the computationally expensive software step
    the paper says makes high pruning rates matter for SKYLINE.
    """
    array = np.asarray(points)
    if not array.size:
        return []
    order = np.lexsort(array.T[::-1])  # stable: first occurrences lead
    ranked = array[order]
    first = np.ones(len(array), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    distinct = array[np.sort(order[first])]
    nan = (distinct != distinct).any(axis=1)
    rest = distinct[~nan]
    # A clipped sum: monotone, and never inf - inf.
    limit = np.finfo(np.float64).max
    scores = np.zeros(len(rest))
    for column in np.clip(rest.astype(np.float64), -limit, limit).T:
        scores += column
    rank = np.argsort(-scores, kind="stable")
    rest, negated = rest[rank], -scores[rank]
    blocks = []
    while len(rest):
        cut = np.searchsorted(
            negated, negated[min(_SFS_BLOCK, len(rest)) - 1], side="right"
        )
        block = rest[:cut]
        blocks.append(block[~_dominated(block, block)])
        rest, negated = rest[cut:], negated[cut:]
        keep = ~_dominated(rest, blocks[-1])
        rest, negated = rest[keep], negated[keep]
    blocks.append(distinct[nan])
    return list(map(tuple, np.concatenate(blocks).tolist()))


def reflect_point(
    point: Point, directions: Sequence[str], bounds: Sequence[float]
) -> Point:
    """Map a mixed min/max point into all-maximize space (footnote 4).

    Minimized dimensions are reflected about an upper ``bound``
    (``v -> bound - v``), which keeps coordinates non-negative — required
    by APH's log domain — and turns "smaller is better" into "larger is
    better" without multiplication.
    """
    if len(directions) != len(point) or len(bounds) != len(point):
        raise ConfigurationError(
            f"point/directions/bounds arity mismatch: "
            f"{len(point)}/{len(directions)}/{len(bounds)}"
        )
    reflected = []
    for value, direction, bound in zip(point, directions, bounds):
        if direction == "max":
            reflected.append(value)
        elif direction == "min":
            if value > bound:
                raise ConfigurationError(
                    f"value {value} exceeds its reflection bound {bound}"
                )
            reflected.append(bound - value)
        else:
            raise ConfigurationError(
                f"direction must be 'max' or 'min', got {direction!r}"
            )
    return tuple(reflected)


class DirectionalSkylinePruner(Pruner[Point]):
    """SKYLINE with per-dimension min/max directions.

    Wraps :class:`SkylinePruner` behind the reflection of
    :func:`reflect_point`; ``drain`` returns points in the *original*
    coordinate space so the master's completion is unchanged.
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(
        self,
        directions: Sequence[str],
        bounds: Sequence[float],
        points: int = 10,
        score: str = "sum",
    ) -> None:
        super().__init__()
        self.directions = list(directions)
        self.bounds = list(bounds)
        self._inner = SkylinePruner(dims=len(directions), points=points, score=score)
        #: Per-entry carried points (original coordinates) of the last batch.
        self.last_batch_carried: List[Optional[Point]] = []

    def process(self, entry: Point) -> PruneDecision:
        reflected = reflect_point(entry, self.directions, self.bounds)
        decision = self._inner.process(reflected)
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Batch directional skyline: reflect, then the inner batch walk.

        Reflection is a per-row loop (it validates bounds exactly like the
        scalar path); carried points come back unreflected in
        :attr:`last_batch_carried`.
        """
        reflected = [
            reflect_point(tuple(entry), self.directions, self.bounds)
            for entry in entries
        ]
        forward = self._inner.process_batch(reflected)
        count = len(forward)
        self.stats.record_batch(count, count - int(forward.sum()))
        self.last_batch_carried = [
            self._unreflect(carried)
            for carried in self._inner.last_batch_carried.tolist()
        ]
        return forward

    @property
    def last_carried(self) -> Optional[Point]:
        """The forwarded packet's point, back in original coordinates."""
        carried = self._inner.last_carried
        if carried is None:
            return None
        return self._unreflect(carried)

    def _unreflect(self, point: Point) -> Point:
        return tuple(
            bound - value if direction == "min" else value
            for value, direction, bound in zip(point, self.directions, self.bounds)
        )

    def drain(self) -> List[Point]:
        """Stored points in original coordinates."""
        return [self._unreflect(p) for p in self._inner.drain()]

    def footprint(self) -> ResourceFootprint:
        return self._inner.footprint()

    def _reset_state(self) -> None:
        self._inner.reset()
        self.last_batch_carried = []

    def observe_health(self) -> None:
        """Publish the wrapped skyline pruner's slot occupancy (idempotent)."""
        occupied = sum(1 for slot in self._inner._slots if slot is not None)
        self.metrics.gauge(
            "skyline_slots_occupied",
            "Stored candidate points.",
            pruner=type(self).__name__,
        ).set(occupied)
        self.metrics.gauge(
            "skyline_slots_fill_ratio",
            "Occupied fraction of the w slots.",
            pruner=type(self).__name__,
        ).set(occupied / self._inner.num_points)


def master_directional_skyline(
    points: Sequence[Point], directions: Sequence[str]
) -> List[Point]:
    """Exact skyline under per-dimension directions (master side)."""
    def better_or_equal(a: Point, b: Point) -> bool:
        return all(
            (x >= y) if d == "max" else (x <= y)
            for x, y, d in zip(a, b, directions)
        )

    unique = list(dict.fromkeys(tuple(p) for p in points))
    return [
        candidate
        for candidate in unique
        if not any(
            other != candidate and better_or_equal(other, candidate)
            for other in unique
        )
    ]
