"""Runtime statistics bookkeeping."""

import pytest

from repro.core.stats import RECORD_WINDOW, CallRecord, RuntimeStats


def record(hit: bool, wall=0.1, sim=0.01) -> CallRecord:
    return CallRecord(
        description="f", hit=hit, input_bytes=10, result_bytes=20,
        wall_seconds=wall, sim_seconds=sim,
    )


class TestRuntimeStats:
    def test_empty(self):
        stats = RuntimeStats()
        assert stats.hit_rate() == 0.0
        assert stats.total_wall_seconds() == 0.0

    def test_counting(self):
        stats = RuntimeStats()
        stats.record_call(record(True))
        stats.record_call(record(False))
        stats.record_call(record(True))
        assert stats.calls == 3
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.hit_rate() == 2 / 3

    def test_time_totals(self):
        stats = RuntimeStats()
        stats.record_call(record(True, wall=0.5, sim=0.05))
        stats.record_call(record(False, wall=1.5, sim=0.15))
        assert stats.total_wall_seconds() == 2.0
        assert abs(stats.total_sim_seconds() - 0.2) < 1e-12

    def test_records_preserved_in_order(self):
        stats = RuntimeStats()
        stats.record_call(record(False))
        stats.record_call(record(True))
        assert [r.hit for r in stats.records] == [False, True]

    def test_records_keep_a_recent_window_and_totals_keep_every_call(self):
        stats = RuntimeStats()
        sims = [(i % 7) * 1e-4 + 1e-9 * i for i in range(5 * RECORD_WINDOW + 3)]
        for i, sim in enumerate(sims):
            stats.record_call(record(i % 3 == 0, wall=sim * 10, sim=sim))
            assert RECORD_WINDOW <= len(stats.records) or len(stats.records) == i + 1
            assert len(stats.records) < 2 * RECORD_WINDOW
        assert [r.sim_seconds for r in stats.records] == sims[-len(stats.records):]
        assert stats.calls == len(sims)
        assert stats.hits == len(range(0, len(sims), 3))
        # Bit for bit what summing every record in call order gives.
        assert stats.total_sim_seconds() == sum(sims)
        assert stats.total_wall_seconds() == sum(sim * 10 for sim in sims)


class TestSnapshot:
    def test_snapshot_is_flat_and_complete(self):
        stats = RuntimeStats()
        stats.record_call(record(True))
        stats.record_call(record(False))
        stats.puts_sent = 2
        stats.puts_accepted = 1
        stats.puts_rejected = 1
        snap = stats.snapshot()
        assert snap["runtime.calls"] == 2
        assert snap["runtime.hits"] == 1
        assert snap["runtime.misses"] == 1
        assert snap["runtime.hit_rate"] == 0.5
        assert snap["runtime.puts_sent"] == 2
        assert snap["runtime.puts_accepted"] == 1
        assert snap["runtime.puts_rejected"] == 1
        assert "records" not in snap  # flat counters only
        for value in snap.values():
            assert isinstance(value, (int, float))

    def test_snapshot_matches_counters_after_more_calls(self):
        stats = RuntimeStats()
        snap0 = stats.snapshot()
        assert snap0["runtime.calls"] == 0 and snap0["runtime.hit_rate"] == 0.0
        for hit in (True, True, False):
            stats.record_call(record(hit))
        snap1 = stats.snapshot()
        assert snap1["runtime.calls"] == 3
        assert snap1["runtime.hit_rate"] == pytest.approx(2 / 3)
        assert snap0["runtime.calls"] == 0  # snapshots are detached copies

    def test_runtime_snapshot_adds_queue_depth(self, tmp_path):
        from repro.deployment import Deployment
        from tests.conftest import DOUBLE_DESC, make_libs

        d = Deployment(seed=b"snap")
        app = d.create_application("snap-app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        dedup(b"payload")
        snap = app.runtime.snapshot()
        assert snap["runtime.pending_puts"] == 1  # async PUT not yet flushed
        app.runtime.flush_puts()
        snap = app.runtime.snapshot()
        assert snap["runtime.pending_puts"] == 0
        assert snap["runtime.puts_accepted"] == 1
        assert snap["runtime.puts_unacknowledged"] == 0
