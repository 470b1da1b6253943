"""Model-based end-to-end property test of the DedupRuntime.

Hypothesis drives arbitrary interleavings of calls across two
applications against a single store; a plain-Python model predicts both
the returned values (always the pure function of the input) and the
hit/miss pattern (a call hits iff the tag's PUT was flushed earlier).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deployment import Deployment
from tests.conftest import DOUBLE_DESC, double_bytes, make_libs

# Each step: (app index, input index, flush after?)
step = st.tuples(
    st.integers(0, 1),
    st.integers(0, 5),
    st.booleans(),
)


class TestRuntimeModel:
    @given(steps=st.lists(step, max_size=25))
    @settings(max_examples=20, deadline=None)
    def test_interleaved_calls_match_model(self, steps):
        deployment = Deployment(seed=b"model")
        apps = [
            deployment.create_application("model-a", make_libs()),
            deployment.create_application("model-b", make_libs()),
        ]
        dedups = [app.deduplicable(DOUBLE_DESC) for app in apps]

        stored: set[int] = set()        # input indices whose PUT was flushed
        pending: dict[int, set[int]] = {0: set(), 1: set()}
        expected_hits = [0, 0]
        actual_hits_before = [app.runtime.stats.hits for app in apps]

        for app_index, input_index, flush in steps:
            data = b"input-%d" % input_index
            result = dedups[app_index](data)
            assert result == double_bytes(data)      # correctness, always
            if input_index in stored:
                expected_hits[app_index] += 1
            else:
                pending[app_index].add(input_index)
            if flush:
                apps[app_index].runtime.flush_puts()
                stored |= pending[app_index]
                pending[app_index].clear()

        for i, app in enumerate(apps):
            actual = app.runtime.stats.hits - actual_hits_before[i]
            assert actual == expected_hits[i], (
                f"app {i}: hits {actual} != model {expected_hits[i]}"
            )

        # Store-side global invariants.
        assert len(deployment.store) == len(stored)
        assert deployment.store.stats.puts_rejected == 0
