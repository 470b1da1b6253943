"""Shared helpers for the cluster test suite."""

from __future__ import annotations

import pytest

from repro.crypto.hashes import sha256
from repro.deployment import Deployment
from repro.net.messages import GetRequest, PutRequest


def make_cluster(n_shards=4, replication_factor=2, seed=b"test-cluster", **kwargs):
    return Deployment(
        seed=seed, n_shards=n_shards, replication_factor=replication_factor,
        **kwargs,
    )


def pending_shards(ring) -> tuple[str, ...]:
    """The shards of the ring a transition moves to (the ring's own when idle)."""
    return ring._next.shards if ring._next is not None else ring.shards


def raw_router(deployment, name="raw-client"):
    """A ClusterRouter for a bench-style client enclave (no runtime)."""
    enclave = deployment.platform.create_enclave(name, name.encode() + b"-code")
    return deployment.cluster.connect(name, enclave)


def make_put(i, prefix=b"item", app_id="raw-client"):
    tag = sha256(prefix + i.to_bytes(4, "big"))
    return PutRequest(
        tag=tag,
        challenge=b"r" * 32,
        wrapped_key=b"k" * 16,
        sealed_result=b"sealed-%d" % i,
        app_id=app_id,
    )


def make_get(put):
    return GetRequest(tag=put.tag, app_id=put.app_id)


def puts_spanning_all_shards(deployment, per_shard=2, prefix=b"span"):
    """Deterministic PUTs covering every shard as primary."""
    ring = deployment.cluster.ring
    needed = {s: per_shard for s in ring.shards}
    puts = []
    i = 0
    while any(v > 0 for v in needed.values()):
        put = make_put(i, prefix=prefix)
        primary = ring.owners(put.tag)[0]
        if needed[primary] > 0:
            needed[primary] -= 1
            puts.append(put)
        i += 1
        assert i < 10_000, "ring failed to cover all shards"
    return puts


@pytest.fixture
def cluster4():
    return make_cluster(n_shards=4, replication_factor=2)
