"""An RPC client remembers only what is in flight.

Correlation ids are issued in increasing order, so telling a duplicate
response from a fresh one needs the ids still awaiting an answer, not a
record of every id ever answered: a long session's id bookkeeping must
not grow with the requests it has served.
"""

from repro.deployment import Deployment
from repro.net.messages import GetRequest

from ..durable.conftest import make_put, put


def bookkeeping(client) -> int:
    """Entries the client holds to match responses to requests."""
    return sum(map(len, (
        client._unanswered, client._pipeline, client._completed,
        client._stray_ids, client._stray_responses,
    )))


def test_id_bookkeeping_does_not_grow_with_requests_served():
    deployment = Deployment(seed=b"rpc-bookkeeping")
    enclave = deployment.platform.create_enclave("rpc-client", b"rpc-client-code")
    client = deployment.store.connect("rpc-addr", app_enclave=enclave)
    tag = put(client, b"held")

    def serve(hits: int) -> None:
        for i in range(hits):
            assert client.call(GetRequest(tag=tag, app_id="wal-client")).found
            if i % 10 == 0:  # a one-way PUT whose ack is drained
                client.send_oneway(make_put(b"held"))
                assert len(client.drain_responses()) == 1

    serve(20)
    after_20 = bookkeeping(client)
    serve(2_000 - 20)
    assert bookkeeping(client) <= after_20
