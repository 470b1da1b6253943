"""connect() hardening knobs and their canonical metrics keys.

The retry/breaker/degradation machinery must be reachable through the
public ``repro.connect`` surface, and every counter it maintains must
land in ``Session.snapshot()`` under the canonical dotted key scheme —
dashboards and the simulation trace both key off these names.
"""

import pytest

import repro
from repro import NoLiveOwnerError, TrustedLibrary, TrustedLibraryRegistry
from repro.core.runtime import RuntimeConfig
from repro.net.circuit import OPEN, BreakerConfig
from repro.net.rpc import RetryPolicy


def double_bytes(data: bytes) -> bytes:
    return data + data


def make_libs() -> TrustedLibraryRegistry:
    libs = TrustedLibraryRegistry()
    libs.register(
        TrustedLibrary("testlib", "1.0").add("bytes double(bytes)", double_bytes)
    )
    return libs


DESC = repro.FunctionDescription("testlib", "1.0", "bytes double(bytes)")

HARDENING = dict(
    retry_policy=RetryPolicy(max_attempts=3),
    breaker_config=BreakerConfig(
        failure_threshold=2, reset_timeout_s=None, reset_after_skips=4
    ),
    runtime_config=RuntimeConfig(degrade_on_store_failure=True),
)


def test_cluster_hardening_counters_have_canonical_keys():
    session = repro.connect(
        shards=2, replication_factor=2, libraries=make_libs(),
        seed=b"t-hardening", **HARDENING,
    )
    session.execute(DESC, b"a")
    session.flush_puts()
    snap = session.snapshot()
    for key in (
        "router.retries",
        "router.backoff_seconds_total",
        "router.circuit_opens",
        "router.circuit_skips",
        "router.open_circuits",
        "router.read_repairs",
        "runtime.degraded_calls",
        "runtime.puts_acked_unique",
        "net.messages",
        "net.dropped",
    ):
        assert key in snap, f"missing canonical key {key}"
    assert "router.breaker.shard-0.state" in snap
    assert "router.breaker.shard-1.state" in snap
    assert snap["runtime.degraded_calls"] == 0
    assert snap["net.dropped"] == 0


def test_degraded_calls_and_breaker_opens_flow_into_snapshot():
    session = repro.connect(
        shards=2, replication_factor=2, libraries=make_libs(),
        seed=b"t-degraded", **HARDENING,
    )
    assert session.execute(DESC, b"warm") == b"warmwarm"
    session.flush_puts()
    for shard in session.cluster.shard_ids:
        session.cluster.kill_shard(shard)
    # Every owner dead: each call degrades to local recompute, and the
    # repeated failures trip the per-shard breakers.
    for i in range(4):
        payload = b"deg-%d" % i
        assert session.execute(DESC, payload) == payload * 2
    snap = session.snapshot()
    assert snap["runtime.degraded_calls"] == 4
    assert (
        snap["runtime.hits"] + snap["runtime.misses"]
        + snap["runtime.degraded_calls"]
        == snap["runtime.calls"]
    )
    assert snap["router.circuit_opens"] >= 1
    assert snap["router.open_circuits"] >= 1
    assert any(
        snap[f"router.breaker.{shard}.state"] == OPEN
        for shard in session.cluster.shard_ids
    )
    assert snap["router.circuit_skips"] >= 1


def test_single_store_retry_counters_have_canonical_keys():
    session = repro.connect(
        libraries=make_libs(), seed=b"t-rpc",
        retry_policy=RetryPolicy(max_attempts=3),
    )
    router = session.runtime.client
    assert router.retry_policy is not None
    (client,) = router._clients.values()
    assert client.retry_policy is router.retry_policy

    # Drop the next request on the app->store edge: the retry must
    # absorb it and the counters must surface under router.* keys.
    src = client._endpoint.address
    dst = client._server_address
    fault = session.fault
    fault.drop_indices.add((src, dst, fault._edge_counters.get((src, dst), 0)))
    assert session.execute(DESC, b"retry") == b"retryretry"

    snap = session.snapshot()
    assert snap["router.retries"] == 1
    assert snap["router.backoff_seconds_total"] > 0
    assert snap["net.dropped"] == 1
    assert snap["runtime.degraded_calls"] == 0


@pytest.mark.parametrize("degrade", [True, False], ids=["degrade", "failfast"])
def test_single_store_breaker_opens_on_a_killed_shard(degrade):
    """``breaker_config`` reaches the router of a ``shards=0`` session:
    its lone shard's breaker opens, and each call then degrades or
    fails fast as the runtime is configured."""
    session = repro.connect(
        libraries=make_libs(), seed=b"t-fig1-breaker",
        breaker_config=HARDENING["breaker_config"],
        runtime_config=RuntimeConfig(degrade_on_store_failure=degrade),
    )
    session.kill_shard("shard-0")
    for i in range(4):
        payload = b"fig1-%d" % i
        if degrade:
            assert session.execute(DESC, payload) == payload * 2
        else:
            with pytest.raises(NoLiveOwnerError):
                session.execute(DESC, payload)
    snap = session.snapshot()
    assert snap["router.breaker.shard-0.state"] == OPEN
    assert snap["router.circuit_opens"] == 1
    assert snap["router.circuit_skips"] == 2
    assert snap["runtime.degraded_calls"] == (4 if degrade else 0)
