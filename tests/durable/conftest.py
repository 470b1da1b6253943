"""Shared helpers for the durable (WAL / checkpoint / recovery) suite."""

from __future__ import annotations

from repro.crypto.hashes import sha256
from repro.deployment import Deployment
from repro.net.messages import BatchPutRequest, GetRequest, PutRequest
from repro.store.resultstore import StoreConfig


def durable_deployment(seed: bytes, **config_kwargs):
    """A durable single-store deployment plus a connected raw client."""
    config_kwargs.setdefault("durable", True)
    d = Deployment(seed=seed, store_config=StoreConfig(**config_kwargs))
    enclave = d.platform.create_enclave("wal-client", b"wal-client-code")
    client = d.store.connect("wal-addr", app_enclave=enclave)
    return d, client


def make_put(label: bytes, app_id: str = "wal-client", size: int = 64) -> PutRequest:
    return PutRequest(
        tag=sha256(b"durable" + label),
        challenge=b"r" * 32,
        wrapped_key=b"k" * 16,
        sealed_result=(b"blob-" + label).ljust(size, b"."),
        app_id=app_id,
    )


def put(client, label: bytes, **kwargs) -> bytes:
    request = make_put(label, **kwargs)
    assert client.call(request).accepted
    return request.tag


def batch_put(client, labels, **kwargs) -> list[bytes]:
    requests = [make_put(label, **kwargs) for label in labels]
    responses = client.call(BatchPutRequest(items=tuple(requests))).items
    assert all(r.accepted for r in responses)
    return [r.tag for r in requests]


def get(client, tag: bytes, app_id: str = "wal-client"):
    return client.call(GetRequest(tag=tag, app_id=app_id))
