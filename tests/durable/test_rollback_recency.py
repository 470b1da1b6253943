"""Rollback detection against the hardware monotonic counter, and
GET-recency WAL marks restoring eviction order across recovery."""

import pytest

from repro.durable import take_checkpoint
from repro.errors import RollbackError
from repro.security import HostAdversary

from .conftest import durable_deployment, get, put


class TestRollbackDetection:
    def stale_state(self, seed, **config_kwargs):
        d, client = durable_deployment(seed, **config_kwargs)
        put(client, b"one")
        take_checkpoint(d.store)
        adversary = HostAdversary(d.platform.host)
        older = adversary.save(f"{d.store.address}/")
        put(client, b"two")
        take_checkpoint(d.store)                 # bumps the counter again
        adversary.put_back(older, prefix=f"{d.store.address}/")
        d.store.power_fail()
        return d, client

    def test_counter_mismatch_counts_rollback_detected(self):
        d, client = self.stale_state(b"rollback-count")
        report = d.store.recover()
        assert report.rollback_detected
        assert d.store.durable.rollback_detected == 1
        assert d.store.snapshot()["durable.rollback_detected"] == 1

    def test_strict_rollback_refuses_the_stale_state(self):
        d, client = self.stale_state(b"rollback-strict", strict_rollback=True)
        with pytest.raises(RollbackError) as excinfo:
            d.store.recover()
        assert excinfo.value.code == "state_rollback"

    def test_fresh_recovery_detects_no_rollback(self):
        d, client = durable_deployment(b"rollback-clean")
        put(client, b"one")
        take_checkpoint(d.store)
        put(client, b"two")
        d.store.power_fail()
        report = d.store.recover()
        assert not report.rollback_detected
        assert d.store.durable.rollback_detected == 0


class TestRecencyAcrossRecovery:
    """LRU order after recovery matches the no-crash run when GET
    recency is logged (regression for recover-then-evict)."""

    def drive(self, seed, crash):
        d, client = durable_deployment(
            seed, capacity_entries=3, recency_log_interval=1,
        )
        tags = [put(client, bytes([i])) for i in range(3)]
        take_checkpoint(d.store)
        # Touch the LRU-oldest entry: only the REC_TOUCH mark records
        # this read after the checkpoint.
        assert get(client, tags[0]).found
        if crash:
            d.store.power_fail()
            d.store.recover()
        # One more insert must evict tags[1] (the true LRU), not
        # tags[0] (stale-LRU if the touch was lost with the crash).
        fourth = put(client, b"overflow")
        return d, tags, fourth

    def test_recover_then_evict_matches_no_crash_order(self):
        d_live, tags_live, _ = self.drive(b"recency-live", crash=False)
        d_rec, tags_rec, _ = self.drive(b"recency-live", crash=True)
        assert tags_live == tags_rec
        live = set(d_live.store.stored_tags())
        recovered = set(d_rec.store.stored_tags())
        assert live == recovered
        assert tags_live[0] in recovered        # touched entry survived
        assert tags_live[1] not in recovered    # true LRU evicted

    def test_without_recency_marks_the_touch_is_lost(self):
        d, client = durable_deployment(
            b"recency-off", capacity_entries=3, recency_log_interval=0,
        )
        tags = [put(client, bytes([i])) for i in range(3)]
        take_checkpoint(d.store)
        assert get(client, tags[0]).found
        d.store.power_fail()
        d.store.recover()
        put(client, b"overflow")
        # The read was never logged, so recovery restored checkpoint
        # recency and eviction removed the touched entry.
        assert tags[0] not in set(d.store.stored_tags())
