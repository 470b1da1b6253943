"""Pipelined runtime integration: identical results, coalescing,
flush/close semantics, and the bounded async PUT queue.

Everything here runs the full public path (``repro.connect`` +
``Session.enable_pipeline``) against a sharded deployment, comparing the
pipelined engine's observable behaviour to the serial client's.
"""

import pytest

import repro
from repro.core.runtime import RuntimeConfig
from repro.errors import DedupError


def make_session(shards=4, seed=b"t-pipeline", **kwargs):
    return repro.connect(
        shards=shards, replication_factor=1, seed=seed, tracing=False,
        **kwargs,
    )


def mark_kernel(session):
    @session.mark(version="1.0")
    def pipeline_kernel(data: bytes) -> bytes:
        return bytes(b ^ 0x3C for b in data)
    return pipeline_kernel


def distinct_inputs(n, stride=1):
    return [(i * stride).to_bytes(4, "big") * 32 for i in range(n)]


class TestIdenticalResults:
    def test_warm_batch_matches_serial_path_exactly(self):
        session = make_session()
        kernel = mark_kernel(session)
        inputs = distinct_inputs(24)
        kernel.map(inputs)
        session.flush_puts()

        serial = session.sibling("serial")
        pipelined = session.sibling("pipelined")
        pipelined.enable_pipeline(depth=8, workers=4)
        a = serial.execute_many_results(kernel.description, inputs)
        b = pipelined.execute_many_results(kernel.description, inputs)
        assert [r.value for r in a] == [r.value for r in b]
        assert [r.hit for r in a] == [r.hit for r in b]
        sa, sb = serial.runtime.stats, pipelined.runtime.stats
        assert (sa.hits, sa.misses, sa.degraded) == (sb.hits, sb.misses, sb.degraded)

    def test_cold_batch_matches_serial_path_exactly(self):
        session = make_session(seed=b"t-pipeline-cold")
        kernel = mark_kernel(session)
        inputs = distinct_inputs(12, stride=7)
        serial = session.sibling("serial")
        pipelined = session.sibling("pipelined")
        pipelined.enable_pipeline(depth=8, workers=4)
        # Two separate deployments would dedup differently; here both
        # siblings run cold against tags nothing has stored yet, so the
        # second runner hits what the first just flushed.  Compare each
        # against plain recomputation instead.
        expected = [bytes(b ^ 0x3C for b in data) for data in inputs]
        assert [
            r.value
            for r in pipelined.execute_many_results(kernel.description, inputs)
        ] == expected
        stats = pipelined.runtime.stats
        assert stats.hits + stats.misses + stats.degraded == stats.calls

    def test_engine_accounting_reports_overlap_on_warm_batches(self):
        session = make_session(seed=b"t-pipeline-overlap")
        kernel = mark_kernel(session)
        inputs = distinct_inputs(32)
        kernel.map(inputs)
        session.flush_puts()
        reader = session.sibling("reader")
        engine = reader.enable_pipeline(depth=8, workers=4)
        reader.execute_many_results(kernel.description, inputs)
        assert engine.overlap_cycles_saved > 0
        assert engine.makespan_cycles <= engine.serial_cycles


class TestCoalescing:
    def test_duplicate_tags_share_one_store_round_trip(self):
        session = make_session(seed=b"t-coalesce")
        kernel = mark_kernel(session)
        burst = [b"\x01\x02\x03\x04" * 32] * 10
        kernel.map(burst[:1])
        session.flush_puts()
        reader = session.sibling("reader")
        reader.enable_pipeline(depth=8, workers=4)
        gets0 = sum(
            node.store.stats.gets
            for node in session.deployment.cluster.shards.values()
        )
        results = reader.execute_many_results(kernel.description, burst)
        gets = sum(
            node.store.stats.gets
            for node in session.deployment.cluster.shards.values()
        ) - gets0
        assert gets == 1  # single-flight: one trip for ten duplicates
        assert results[0].source == "store"
        assert all(r.source == "coalesced" for r in results[1:])
        assert all(r.value == results[0].value for r in results)
        assert reader.runtime.stats.coalesced_hits == 9
        assert reader.runtime.stats.hits == 10

    def test_cold_duplicates_compute_once_and_put_once(self):
        session = make_session(seed=b"t-coalesce-cold")
        kernel = mark_kernel(session)
        burst = [b"\x09\x08\x07\x06" * 32] * 6
        reader = session.sibling("reader")
        reader.enable_pipeline(depth=8, workers=4)
        results = reader.execute_many_results(kernel.description, burst)
        assert results[0].source == "computed"
        assert all(r.source == "coalesced" for r in results[1:])
        assert reader.runtime.pending_put_count == 1  # one PUT for the tag
        reader.flush_puts()
        assert reader.runtime.stats.puts_sent == 1


class TestDegradedPath:
    def test_dead_cluster_degrades_every_item_identically(self):
        session = make_session(
            seed=b"t-degrade",
            runtime_config=RuntimeConfig(degrade_on_store_failure=True),
        )
        kernel = mark_kernel(session)
        inputs = distinct_inputs(8)
        engine = session.enable_pipeline(depth=8, workers=4)
        for sid in list(session.cluster.shard_ids):
            session.cluster.kill_shard(sid)
        results = kernel.map_results(inputs)
        expected = [bytes(b ^ 0x3C for b in data) for data in inputs]
        assert [r.value for r in results] == expected
        assert all(r.degraded for r in results)
        stats = session.runtime.stats
        assert stats.degraded == len(inputs)
        assert stats.hits + stats.misses + stats.degraded == stats.calls
        assert engine.rounds > 0  # the dead cluster still went through it


class TestFlushAndClose:
    def test_close_flushes_settles_and_refuses_new_async_puts(self):
        session = make_session(seed=b"t-close")
        kernel = mark_kernel(session)
        session.enable_pipeline(depth=8, workers=4)
        kernel.map(distinct_inputs(6))
        assert session.runtime.pending_put_count > 0
        flushed = session.close()
        assert flushed == 6
        assert session.runtime.closed
        assert session.runtime.pending_put_count == 0
        with pytest.raises(DedupError):
            kernel.map(distinct_inputs(2, stride=99))  # would queue a PUT
        assert session.close() == 0  # idempotent

    def test_closed_runtime_still_serves_store_hits(self):
        session = make_session(seed=b"t-close-hits")
        kernel = mark_kernel(session)
        inputs = distinct_inputs(4)
        kernel.map(inputs)
        session.close()
        results = kernel.map_results(inputs)
        assert all(r.hit for r in results)


class TestSessionSurface:
    def test_enable_pipeline_registers_engine_metrics(self):
        session = make_session(seed=b"t-metrics")
        kernel = mark_kernel(session)
        engine = session.enable_pipeline(depth=8, workers=4)
        kernel.map(distinct_inputs(4))
        snap = session.snapshot()
        assert snap["engine.depth"] == 8
        assert snap["engine.workers"] == 4
        assert snap["engine.rounds"] == engine.rounds
        assert "engine.sim_seconds_total" in snap

    def test_single_machine_results_match_serial_sibling(self):
        # Fig. 1 topology: store and app share one machine/clock, so the
        # wire rounds cannot overlap (one lane); only the in-enclave
        # worker-lane regions (multi-core) may report overlap — and the
        # results must still be byte-identical to the serial client's.
        session = repro.connect(seed=b"t-single-pipeline", tracing=False)
        kernel = mark_kernel(session)
        inputs = distinct_inputs(8)
        kernel.map(inputs)
        session.flush_puts()
        serial = session.sibling("serial")
        expected = [
            r.value
            for r in serial.execute_many_results(kernel.description, inputs)
        ]
        pipelined = session.sibling("pipelined")
        engine = pipelined.enable_pipeline(depth=8, workers=4)
        results = pipelined.execute_many_results(kernel.description, inputs)
        assert [r.value for r in results] == expected
        assert all(r.hit for r in results)
        assert engine.rounds > 0
        assert engine.makespan_cycles <= engine.serial_cycles
