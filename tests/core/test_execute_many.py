"""execute_many: batched Algorithms 1 & 2 with per-item semantics."""

import pytest

from repro import RuntimeConfig
from repro.deployment import Deployment
from repro.net.messages import ErrorMessage, PutResponse
from repro.net.transport import FaultInjector
from tests.conftest import DOUBLE_DESC, double_bytes, make_libs

INPUTS = [b"alpha", b"beta", b"gamma", b"alpha", b"delta", b"beta"]


def batch_app(seed: bytes, **config_kwargs):
    d = Deployment(seed=seed)
    app = d.create_application(
        "batch-app", make_libs(), RuntimeConfig(app_id="batch-app", **config_kwargs)
    )
    return d, app


class TestAmortization:
    def test_one_ecall_one_ocall_per_batch(self):
        d, app = batch_app(b"em-trans")
        ecalls0, ocalls0 = app.enclave.ecall_count, app.enclave.ocall_count
        app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b", b"c", b"d"])
        assert app.enclave.ecall_count - ecalls0 == 1
        assert app.enclave.ocall_count - ocalls0 == 1  # one batched GET

    def test_fewer_transitions_than_sequential(self):
        d_seq, app_seq = batch_app(b"em-vs")
        for v in INPUTS:
            app_seq.runtime.execute(DOUBLE_DESC, v)
        seq_transitions = app_seq.enclave.transition_count

        d_bat, app_bat = batch_app(b"em-vs")
        app_bat.runtime.execute_many(DOUBLE_DESC, INPUTS)
        assert app_bat.enclave.transition_count * 3 <= seq_transitions

    def test_one_channel_record_for_batch_get(self):
        d, app = batch_app(b"em-rec")
        before = app.runtime.client.records_sent
        app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b", b"c"])
        assert app.runtime.client.records_sent - before == 1

    def test_store_serves_batch_in_one_ecall(self):
        d, app = batch_app(b"em-store")
        store_ecalls0 = d.store.enclave.ecall_count
        app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b", b"c"])
        assert d.store.enclave.ecall_count - store_ecalls0 == 1


class TestPerItemRecords:
    def test_each_item_gets_a_record(self):
        d, app = batch_app(b"em-rec2")
        app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b", b"c"])
        stats = app.runtime.stats
        assert stats.calls == 3
        assert stats.batches == 1
        assert all(r.batch_size == 3 for r in stats.records)

    def test_shared_costs_split_evenly_and_sum_to_total(self):
        d, app = batch_app(b"em-sum")
        sim0 = d.clock.snapshot()
        app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b", b"c", b"d"])
        total_sim = d.clock.since(sim0) / d.clock.params.cpu_freq_hz
        records = app.runtime.stats.records
        assert sum(r.sim_seconds for r in records) == pytest.approx(total_sim)

    def test_adaptive_observes_every_item(self):
        from repro.core.adaptive import AdaptiveDedupPolicy

        policy = AdaptiveDedupPolicy(min_observations=100)
        d, app = batch_app(b"em-adaptive", adaptive=policy)
        app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b", b"c"])
        func_identity = app.runtime.libraries.function_identity(DOUBLE_DESC)
        assert policy.profile(func_identity).calls == 3


class TestSyncPut:
    def test_sync_mode_batches_the_puts_too(self):
        d, app = batch_app(b"em-sync", async_put=False)
        ocalls0 = app.enclave.ocall_count
        app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b", b"c"])
        # One batched GET plus one batched PUT.
        assert app.enclave.ocall_count - ocalls0 == 2
        assert app.runtime.pending_put_count == 0
        assert app.runtime.stats.puts_accepted == 3


class TestFlushAccounting:
    def test_batched_flush_accounts_per_item(self):
        d, app = batch_app(b"em-flush")
        app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b", b"c"])
        before = app.runtime.client.records_sent
        flushed = app.runtime.flush_puts()
        assert flushed == 3
        assert app.runtime.client.records_sent - before == 1  # one batch record
        stats = app.runtime.stats
        assert stats.puts_sent == 3
        assert stats.puts_accepted == 3
        assert stats.puts_rejected == 0
        assert app.runtime.puts_unacknowledged == 0

    def test_dropped_batch_response_stays_unacknowledged(self):
        # Store→app edge: 0 batch-GET response, 1 batch-PUT response
        # (dropped).  Indices count per (source, dest) edge.
        store_to_app = ("resultstore@machine-0", "batch-app@machine-0", 1)
        d = Deployment(seed=b"em-drop",
                       fault_injector=FaultInjector(drop_indices={store_to_app}))
        app = d.create_application("batch-app", make_libs())
        app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b"])
        app.runtime.flush_puts()
        stats = app.runtime.stats
        assert stats.puts_sent == 2
        assert stats.puts_accepted == 0
        assert stats.puts_rejected == 0
        assert stats.puts_failed == 0
        assert app.runtime.puts_unacknowledged == 2
        # The PUTs themselves arrived: the next batch hits.
        assert app.runtime.execute_many(DOUBLE_DESC, [b"a", b"b"]) == [
            double_bytes(b"a"), double_bytes(b"b")
        ]
        assert stats.hits == 2

    def test_correlated_error_counts_as_failed(self):
        _, app = batch_app(b"em-err")
        runtime = app.runtime
        runtime._inflight_puts = {7: (b"t1", b"t2", b"t3")}
        runtime._account_put_responses(
            [ErrorMessage(code=500, detail="boom", request_id=7)]
        )
        assert runtime.stats.puts_failed == 3
        assert runtime.puts_unacknowledged == 0

    def test_uncorrelated_error_leaves_puts_unacknowledged(self):
        _, app = batch_app(b"em-err0")
        runtime = app.runtime
        runtime._inflight_puts = {7: (b"t1", b"t2")}
        runtime._account_put_responses([ErrorMessage(code=400, detail="garbage")])
        assert runtime.stats.puts_failed == 0
        assert runtime.stats.puts_rejected == 0
        assert runtime.puts_unacknowledged == 2

    def test_foreign_response_not_miscounted(self):
        """Regression: a drained response that answers nothing we sent
        must not bump the rejected counter (the old accounting counted
        every non-accepted drained message as a rejection)."""
        _, app = batch_app(b"em-foreign")
        runtime = app.runtime
        runtime._account_put_responses(
            [PutResponse(accepted=False, reason="not ours", request_id=99)]
        )
        assert runtime.stats.puts_rejected == 0
