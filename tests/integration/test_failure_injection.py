"""Failure injection: dropped and corrupted wire messages.

Fault indices count **per (source, dest) edge**: a plain integer rule
matches that index on every edge, and an ``(source, dest, index)`` tuple
pins the rule to one direction of one conversation.  The app's client
endpoint is ``app@machine-0`` and the store's is ``resultstore@machine-0``
under the default deployment, so e.g. the first PUT request is index 1 on
the app→store edge (index 0 was the GET) and the PUT response is index 1
on the store→app edge.
"""

import pytest

from repro.deployment import Deployment
from repro.errors import NoLiveOwnerError, TransportError
from repro.net.transport import FaultInjector
from tests.conftest import DOUBLE_DESC, double_bytes, make_libs

APP = "app@machine-0"
STORE = "resultstore@machine-0"


class TestMessageLoss:
    def test_dropped_get_surfaces_as_transport_error(self):
        # Message 0 of the app→store edge is the first GET (channel
        # establishment is in-process, not on the wire).
        d = Deployment(seed=b"drop-get",
                       fault_injector=FaultInjector(drop_indices={(APP, STORE, 0)}))
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        with pytest.raises(TransportError):
            dedup(b"data")

    def test_corrupted_get_rejected_by_channel(self):
        d = Deployment(seed=b"corrupt-get",
                       fault_injector=FaultInjector(corrupt_indices={(APP, STORE, 0)}))
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        # The store's channel detects the corruption and answers with a
        # protocol error; the router counts the shard as not serving the
        # GET, and with no other owner the call fails fast.
        with pytest.raises(NoLiveOwnerError):
            dedup(b"data")
        assert app.runtime.client.stats.get_timeouts == 1

    def test_dropped_put_response_does_not_block_progress(self):
        # Store→app edge: 0 GET-response, 1 PUT-response (dropped).
        d = Deployment(seed=b"drop-put-resp",
                       fault_injector=FaultInjector(drop_indices={(STORE, APP, 1)}))
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        out = dedup(b"data")
        assert out == double_bytes(b"data")
        app.runtime.flush_puts()  # response lost; no acceptance recorded
        assert app.runtime.stats.puts_sent == 1
        assert app.runtime.stats.puts_accepted == 0
        # The PUT itself arrived, so the next call still hits.
        assert dedup(b"data") == out
        assert app.runtime.stats.hits == 1

    def test_dropped_put_request_means_no_dedup_but_correct_results(self):
        # App→store edge: 0 GET, 1 PUT (dropped).
        d = Deployment(seed=b"drop-put",
                       fault_injector=FaultInjector(drop_indices={(APP, STORE, 1)}))
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        assert dedup(b"data") == double_bytes(b"data")
        app.runtime.flush_puts()
        assert dedup(b"data") == double_bytes(b"data")  # recomputed
        assert app.runtime.stats.hits == 0
        assert app.runtime.stats.misses == 2
