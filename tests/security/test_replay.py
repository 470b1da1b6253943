"""Replay and record-splicing attacks on the secure channel."""

import pytest

from repro.deployment import Deployment
from repro.errors import ChannelError
from tests.conftest import DOUBLE_DESC, double_bytes, make_libs


class _RecordingTap:
    """Captures every wire record for later replay."""

    def __init__(self):
        self.records: list[tuple[str, str, bytes]] = []

    def __call__(self, source, dest, payload):
        self.records.append((source, dest, payload))


def shard_channel(app):
    """The client end of the app's channel to the deployment's one shard."""
    (client,) = app.runtime.client._clients.values()
    return client._channel


class TestReplayAttacks:
    def test_replayed_request_is_rejected_by_the_store(self):
        d = Deployment(seed=b"replay-1")
        tap = _RecordingTap()
        d.network.add_tap(tap)
        app = d.create_application("victim", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        dedup(b"data")
        app.runtime.flush_puts()

        # The adversary (who controls the host) re-injects the captured
        # GET request verbatim from the victim's address.
        get_record = next(
            payload for source, dest, payload in tap.records
            if dest == d.store.address
        )
        victim_endpoint = next(
            ep for addr, ep in d.network._endpoints.items()
            if addr.startswith("victim")
        )
        stats_before = d.store.stats.gets
        victim_endpoint.send(d.store.address, get_record)
        # The store answered (an ErrorMessage record) but never executed
        # the replayed request against the dictionary.
        assert d.store.stats.gets == stats_before

    def test_replayed_response_is_rejected_by_the_client(self):
        d = Deployment(seed=b"replay-2")
        tap = _RecordingTap()
        d.network.add_tap(tap)
        app = d.create_application("victim", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        dedup(b"data")
        app.runtime.flush_puts()
        response_record = next(
            payload for source, dest, payload in tap.records
            if source == d.store.address
        )
        # Replay the old response into the client channel directly.
        client_channel = shard_channel(app)
        with pytest.raises(ChannelError):
            client_channel.unprotect(response_record)

    def test_cross_channel_splicing_rejected(self):
        # A record captured from app A's channel cannot be delivered into
        # app B's channel (different session keys).
        d = Deployment(seed=b"replay-3")
        tap = _RecordingTap()
        d.network.add_tap(tap)
        app_a = d.create_application("app-a", make_libs())
        app_b = d.create_application("app-b", make_libs())
        dedup_a = app_a.deduplicable(DOUBLE_DESC)
        dedup_a(b"data")
        record = next(p for s, dest, p in tap.records if dest == d.store.address)
        channel_b = shard_channel(app_b)
        with pytest.raises(ChannelError):
            channel_b.unprotect(record)

    def test_normal_operation_unaffected_after_replays(self):
        d = Deployment(seed=b"replay-4")
        tap = _RecordingTap()
        d.network.add_tap(tap)
        app = d.create_application("victim", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        dedup(b"data")
        app.runtime.flush_puts()
        # Inject one replay...
        record = next(p for s, dest, p in tap.records if dest == d.store.address)
        endpoint = next(
            ep for addr, ep in d.network._endpoints.items()
            if addr.startswith("victim")
        )
        endpoint.send(d.store.address, record)
        # ...drain the error response the store sent back, then proceed.
        while endpoint.pending():
            endpoint.recv()
        # Honest traffic still flows — but note the client channel's
        # receive counter saw nothing, so a fresh call simply works.
        assert dedup(b"data") == double_bytes(b"data")
        assert app.runtime.stats.hits == 1
