"""Register-level pruning programs running on the pipeline simulator.

The pruners in :mod:`repro.core` model the *algorithms*; the programs
here compile two of them down to actual stage registers and metered
read-modify-write ALU operations on :class:`~repro.switch.pipeline.Pipeline`,
demonstrating that the per-stage budgets of §2.2 really suffice.

The DISTINCT program is the paper's LRU in one read-modify-write per
stage: every stage unconditionally writes the carried value and carries
the old one onward; when a stage's old value matches the packet, the
match was just overwritten by its predecessor — which, combined with the
shifts already performed upstream, is precisely "move the hit to column
0".  The resulting decisions are bit-identical to the
:class:`~repro.sketches.cachematrix.CacheMatrix` LRU model (tested).

Values are encoded ``value + 1`` into registers so the all-zeros reset
state cannot alias a genuine value; callers pass non-negative ints.
"""

from __future__ import annotations

from typing import Callable, List

from ..errors import ConfigurationError
from ..sketches.hashing import hash_range
from .pipeline import Phv, Pipeline


class PipelineDistinct:
    """A d×w DISTINCT cache compiled onto pipeline stages.

    Stage ``i`` holds column ``i`` of the matrix as a ``rows``-entry
    register array; one read-modify-write per stage implements the
    compare-and-shift.
    """

    def __init__(self, pipeline: Pipeline, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got rows={rows} cols={cols}"
            )
        if cols > len(pipeline.stages):
            raise ConfigurationError(
                f"need {cols} stages, hardware has {len(pipeline.stages)}"
            )
        self.pipeline = pipeline
        self.rows = rows
        self.cols = cols
        for i in range(cols):
            pipeline.stage(i).alloc_register(f"distinct_col{i}", rows)
            pipeline.install(i, self._stage_program(i))

    def _stage_program(self, index: int) -> Callable[[object, Phv], None]:
        name = f"distinct_col{index}"

        def program(stage, phv: Phv) -> None:
            if phv["hit"]:
                return
            value = phv["value"]
            carry = phv["carry"]
            # Unconditional write-carry: on a miss this is the rolling
            # shift; on a hit the matched copy is overwritten by its
            # predecessor, which together with the earlier stages' shifts
            # is exactly the paper's LRU refresh — in one RMW per stage.
            old = stage.reg_read_modify_write(name, phv["row"], lambda stored: carry)
            if old == value:
                phv["hit"] = 1
                phv.prune = True
            else:
                phv["carry"] = old

        return program

    def process(self, value: int) -> bool:
        """Run one entry through the pipeline; True when forwarded."""
        if value < 0:
            raise ConfigurationError(f"program encodes non-negative ints, got {value}")
        encoded = value + 1  # register 0 means empty
        phv = self.pipeline.new_phv()
        phv.declare("value", 64, encoded)
        phv.declare("carry", 64, encoded)
        phv.declare("row", 32, hash_range(value, self.rows, 0xD15C))
        phv.declare("hit", 1, 0)
        return self.pipeline.process(phv)

    def survivors(self, stream) -> List[int]:
        """Forwarded entries of a stream."""
        return [value for value in stream if self.process(value)]


class PipelineTopNDeterministic:
    """The exponential-threshold TOP N compiled onto pipeline stages.

    Stage 0 runs the warmup (a count register and a running-minimum
    register); stage ``i >= 1`` owns threshold ``t_{i-1} = t0 << (i-1)``
    as a counter register, counting entries at or above it and pruning
    below it once the counter reaches N.  ``t0`` travels in the PHV, and
    the ladder values are derived with shifts — the power-of-two choice
    the paper makes precisely because the hardware can only shift.
    """

    def __init__(self, pipeline: Pipeline, n: int, thresholds: int = 4) -> None:
        if n <= 0:
            raise ConfigurationError(f"N must be positive, got {n}")
        if thresholds < 1:
            raise ConfigurationError(f"need >= 1 threshold, got {thresholds}")
        if thresholds + 1 > len(pipeline.stages):
            raise ConfigurationError(
                f"need {thresholds + 1} stages, hardware has {len(pipeline.stages)}"
            )
        self.pipeline = pipeline
        self.n = n
        self.thresholds = thresholds
        stage0 = pipeline.stage(0)
        stage0.alloc_register("warmup_count", 1)
        stage0.alloc_register("warmup_min", 1)
        pipeline.install(0, self._warmup_program())
        for i in range(1, thresholds + 1):
            pipeline.stage(i).alloc_register(f"t{i}_counter", 1)
            pipeline.install(i, self._threshold_program(i))

    def _warmup_program(self):
        n = self.n

        def program(stage, phv: Phv) -> None:
            count = stage.reg_read_modify_write(
                "warmup_count", 0, lambda c: min(c + 1, n)
            )
            value = phv["value"]
            old_min = stage.reg_read_modify_write(
                "warmup_min",
                0,
                lambda m: value if (count < n and (m == 0 or value < m)) else m,
            )
            if count < n:
                # Still in warmup: always forward, no threshold yet.
                phv["warm"] = 1
                return
            # t0 is the frozen warmup minimum (encoded, never 0 after N>0
            # entries because values are encoded value+1).
            phv["t0"] = old_min

        return program

    def _threshold_program(self, index: int):
        n = self.n
        shift = index - 1

        def program(stage, phv: Phv) -> None:
            if phv["warm"]:
                return
            t0 = phv["t0"]
            threshold = t0 << shift  # the only multiply the hardware has
            value = phv["value"]
            counter = stage.reg_read_modify_write(
                f"t{index}_counter", 0, lambda c: c + 1 if value >= threshold else c
            )
            # t0 (shift 0) is active immediately after warmup: the first N
            # entries were all >= t0 by construction.  Higher rungs wait
            # for their counters.  Once a rung marks the packet, no later
            # rung can unmark it (later thresholds are larger, so the
            # value is below them too) — monotone, single-direction marks
            # are exactly what the hardware's metadata bit supports.
            active = counter >= n or shift == 0
            if active and value < threshold:
                phv.prune = True

        return program

    def process(self, value: int) -> bool:
        """Run one entry through; True when forwarded."""
        if value < 0:
            raise ConfigurationError(f"program encodes non-negative ints, got {value}")
        phv = self.pipeline.new_phv()
        phv.declare("value", 64, value + 1)
        phv.declare("t0", 64, 0)
        phv.declare("warm", 1, 0)
        return self.pipeline.process(phv)

    def survivors(self, stream) -> List[int]:
        """Forwarded entries of a stream."""
        return [value for value in stream if self.process(value)]


class PipelineGroupBy:
    """The MIN/MAX GROUP BY matrix compiled onto pipeline stages.

    Stage ``i`` holds column ``i`` as two register arrays (key and
    aggregate); the per-stage work is one key RMW plus one aggregate RMW —
    two stateful ALU slots, within every PISA budget.  Semantics match
    :class:`~repro.sketches.cachematrix.KeyedAggregateMatrix`: prune iff
    the key is cached with an aggregate at least as good.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        rows: int,
        cols: int,
        aggregate: str = "max",
        seed: int = 0,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got rows={rows} cols={cols}"
            )
        if cols > len(pipeline.stages):
            raise ConfigurationError(
                f"need {cols} stages, hardware has {len(pipeline.stages)}"
            )
        if aggregate not in ("max", "min"):
            raise ConfigurationError(f"aggregate must be max/min, got {aggregate!r}")
        self.pipeline = pipeline
        self.rows = rows
        self.cols = cols
        self.aggregate = aggregate
        self._seed = seed
        for i in range(cols):
            stage = pipeline.stage(i)
            stage.alloc_register(f"gb_key{i}", rows)
            stage.alloc_register(f"gb_val{i}", rows)
            pipeline.install(i, self._stage_program(i))

    def _better(self, new: int, cached: int) -> bool:
        return new > cached if self.aggregate == "max" else new < cached

    def _stage_program(self, index: int):
        key_name, val_name = f"gb_key{index}", f"gb_val{index}"

        def program(stage, phv: Phv) -> None:
            if phv["done"]:
                return
            row = phv["row"]
            key = phv["key"]
            value = phv["value"]
            carry_key = phv["carry_key"]
            carry_val = phv["carry_val"]
            old_key = stage.reg_read_modify_write(
                key_name, row, lambda stored: stored if stored == key else carry_key
            )
            if old_key == key:
                # Key cached here: conditional aggregate update, and stop.
                old_val = stage.reg_read_modify_write(
                    val_name,
                    row,
                    lambda stored: value if self._better(value, stored) else stored,
                )
                phv["done"] = 1
                if not self._better(value, old_val):
                    phv.prune = True
                return
            # Miss: shift the (key, value) pair like DISTINCT's rolling
            # replacement; undo the key write is impossible, so the value
            # register shifts in the same direction to stay aligned.
            old_val = stage.reg_read_modify_write(
                val_name, row, lambda stored: carry_val
            )
            phv["carry_key"] = old_key
            phv["carry_val"] = old_val

        return program

    def process(self, key: int, value: int) -> bool:
        """Run one (key, value) entry; True when forwarded."""
        if key < 0 or value < 0:
            raise ConfigurationError("program encodes non-negative ints")
        phv = self.pipeline.new_phv()
        phv.declare("key", 64, key + 1)
        phv.declare("value", 64, value + 1)
        phv.declare("carry_key", 64, key + 1)
        phv.declare("carry_val", 64, value + 1)
        phv.declare("row", 32, hash_range(key, self.rows, self._seed ^ 0x6B))
        phv.declare("done", 1, 0)
        return self.pipeline.process(phv)


class PipelineCountMin:
    """A Count-Min sketch compiled onto pipeline stages (HAVING's substrate).

    One stage per sketch row: a ``width``-counter register array and a
    single RMW per packet (add and read back).  The packet carries the
    rolling minimum of the row estimates — exactly how a switch computes
    the Count-Min estimate across stages.
    """

    def __init__(
        self, pipeline: Pipeline, width: int, depth: int = 3, seed: int = 0
    ) -> None:
        if width <= 0 or depth <= 0:
            raise ConfigurationError(
                f"sketch dimensions must be positive, got width={width} depth={depth}"
            )
        if depth > len(pipeline.stages):
            raise ConfigurationError(
                f"need {depth} stages, hardware has {len(pipeline.stages)}"
            )
        self.pipeline = pipeline
        self.width = width
        self.depth = depth
        self._seed = seed
        for i in range(depth):
            pipeline.stage(i).alloc_register(f"cms_row{i}", width)
            pipeline.install(i, self._stage_program(i))

    def _stage_program(self, index: int):
        name = f"cms_row{index}"

        def program(stage, phv: Phv) -> None:
            amount = phv["amount"]
            new_count = (
                stage.reg_read_modify_write(name, phv[f"idx{index}"], lambda c: c + amount)
                + amount
            )
            if new_count < phv["estimate"]:
                phv["estimate"] = new_count

        return program

    def add(self, key: int, amount: int = 1) -> int:
        """Add ``amount`` for ``key``; returns the post-update estimate."""
        if amount < 0:
            raise ConfigurationError("negative updates unsupported")
        phv = self.pipeline.new_phv()
        phv.declare("amount", 64, amount)
        phv.declare("estimate", 64, (1 << 62))
        for i in range(self.depth):
            phv.declare(
                f"idx{i}", 32, hash_range(key, self.width, self._seed * 0x1000 + i + 1)
            )
        self.pipeline.process(phv)
        return phv["estimate"]
