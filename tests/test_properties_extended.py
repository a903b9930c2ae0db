"""Second wave of property-based tests: programs, extensions, services, SQL."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.base import PruneDecision
from repro.core.distinct import DistinctPruner, master_distinct
from repro.core.join import OuterJoinPruner
from repro.core.topn import master_topn
from repro.extensions.multientry import MultiEntryPruner
from repro.extensions.multiswitch import SwitchTree
from repro.net.services import ValueCodec
from repro.switch.pipeline import Pipeline
from repro.switch.programs import PipelineDistinct, PipelineTopNDeterministic
from repro.switch.resources import ResourceModel

from tests.test_join import master_outer_join

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _pipeline(stages=8):
    return Pipeline(
        ResourceModel(
            stages=stages,
            alus_per_stage=4,
            sram_bits_per_stage=256 * 1024 * 8,
            tcam_entries=64,
            phv_bits=512,
        )
    )


class TestPipelineProgramProperties:
    @_SETTINGS
    @given(
        stream=st.lists(st.integers(0, 60), max_size=200),
        rows=st.integers(1, 32),
        cols=st.integers(1, 4),
    )
    def test_pipeline_distinct_matches_sketch_lru(self, stream, rows, cols):
        program = PipelineDistinct(_pipeline(), rows=rows, cols=cols)
        sketch = DistinctPruner(rows=rows, cols=cols, policy="lru")
        for value in stream:
            assert program.process(value) == (
                sketch.process(value) is PruneDecision.FORWARD
            )

    @_SETTINGS
    @given(
        stream=st.lists(st.integers(0, 100_000), max_size=200),
        n=st.integers(1, 20),
        thresholds=st.integers(1, 5),
    )
    def test_pipeline_topn_contract(self, stream, n, thresholds):
        program = PipelineTopNDeterministic(_pipeline(), n=n, thresholds=thresholds)
        survivors = program.survivors(stream)
        assert sorted(master_topn(survivors, n)) == sorted(master_topn(stream, n))


class TestExtensionProperties:
    @_SETTINGS
    @given(
        stream=st.lists(st.integers(0, 50), max_size=240),
        k=st.integers(1, 8),
        rows=st.integers(1, 16),
    )
    def test_multientry_distinct_contract(self, stream, k, rows):
        pruner = DistinctPruner(rows=rows, cols=2, seed=3)
        adapter = MultiEntryPruner(
            pruner, row_of=pruner._matrix.row_of, entries_per_packet=k
        )
        survivors = adapter.prune_stream(stream)
        assert set(master_distinct(survivors)) == set(stream)

    @_SETTINGS
    @given(
        stream=st.lists(st.integers(0, 80), max_size=240),
        leaves=st.integers(1, 5),
    )
    def test_switch_tree_distinct_contract(self, stream, leaves):
        tree = SwitchTree(
            leaves=[DistinctPruner(rows=8, cols=2, seed=i) for i in range(leaves)],
            root=DistinctPruner(rows=16, cols=2, seed=77),
        )
        survivors = tree.survivors(stream)
        assert set(master_distinct(survivors)) == set(stream)

    @_SETTINGS
    @given(
        left=st.lists(st.integers(0, 40), max_size=120),
        right=st.lists(st.integers(0, 40), max_size=120),
        preserved=st.sampled_from(["left", "right"]),
        memory=st.sampled_from([256, 4096]),
    )
    def test_outer_join_contract(self, left, right, preserved, memory):
        pruner = OuterJoinPruner(
            left="A", right="B", preserved=preserved, memory_bits=memory
        )
        pruner.build(left, right)
        left_surv = [
            k for k in left if pruner.process(("A", k)) is PruneDecision.FORWARD
        ]
        right_surv = [
            k for k in right if pruner.process(("B", k)) is PruneDecision.FORWARD
        ]
        got = master_outer_join(
            [(k, k) for k in left_surv],
            [(k, k) for k in right_surv],
            preserved=preserved,
        )
        expected = master_outer_join(
            [(k, k) for k in left], [(k, k) for k in right], preserved=preserved
        )
        assert sorted(got, key=repr) == sorted(expected, key=repr)


class TestCodecProperties:
    @_SETTINGS
    @given(value=st.integers(-(1 << 62), 1 << 62))
    def test_int_identity(self, value):
        assert ValueCodec().encode(value) == value

    @_SETTINGS
    @given(value=st.floats(0.0, 1e12, allow_nan=False))
    def test_float_encoding_is_one_sided(self, value):
        codec = ValueCodec(float_scale=1000)
        decoded = codec.encode(value) / codec.float_scale
        assert decoded >= value
        # One quantum of quantization plus float-division rounding slack.
        assert decoded - value <= 0.001 + abs(value) * 1e-12

    @_SETTINGS
    @given(text=st.text(max_size=50))
    def test_string_encoding_deterministic_and_in_range(self, text):
        codec = ValueCodec()
        word = codec.encode(text)
        assert word == codec.encode(text)
        assert -(1 << 63) <= word <= (1 << 63) - 1


class TestSqlRoundTripProperties:
    comparison = st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from([">", ">=", "<", "<=", "=", "!="]),
        st.integers(-100, 100),
    )

    @_SETTINGS
    @given(
        terms=st.lists(comparison, min_size=1, max_size=4),
        connective=st.sampled_from(["AND", "OR"]),
    )
    def test_parsed_predicate_matches_semantics(self, terms, connective):
        from tests.test_sql import parse_predicate

        sql = f" {connective} ".join(f"{c} {op} {lit}" for c, op, lit in terms)
        expr = parse_predicate(sql)
        columns = ["a", "b", "c"]
        formula = expr.to_formula(columns)
        ops = {
            ">": lambda x, y: x > y,
            ">=": lambda x, y: x >= y,
            "<": lambda x, y: x < y,
            "<=": lambda x, y: x <= y,
            "=": lambda x, y: x == y,
            "!=": lambda x, y: x != y,
        }
        for entry in [(-100, 0, 100), (0, 0, 0), (50, -50, 5)]:
            env = dict(zip(columns, entry))
            values = [ops[op](env[c], lit) for c, op, lit in terms]
            expected = all(values) if connective == "AND" else any(values)
            assert formula.evaluate(entry) == expected
