"""The unified public API: repro.connect() / Session."""

import json

import pytest

import repro
from repro import (
    QuotaExceededError,
    SpeedError,
    StoreConfig,
    StoreError,
    TrustedLibrary,
    TrustedLibraryRegistry,
)
from repro.core import DedupResult
from repro.errors import NoLiveOwnerError, error_codes, error_for_code


def double_bytes(data: bytes) -> bytes:
    return data + data


def make_libs() -> TrustedLibraryRegistry:
    libs = TrustedLibraryRegistry()
    libs.register(
        TrustedLibrary("testlib", "1.0").add("bytes double(bytes)", double_bytes)
    )
    return libs


DESC = repro.FunctionDescription("testlib", "1.0", "bytes double(bytes)")


# -- facade ----------------------------------------------------------------
def test_connect_single_store_executes_and_dedups():
    session = repro.connect(libraries=make_libs(), seed=b"t-session")
    assert not session.is_cluster
    assert session.execute(DESC, b"abc") == b"abcabc"
    session.flush_puts()
    result = session.execute_result(DESC, b"abc")
    assert isinstance(result, DedupResult)
    assert result.value == b"abcabc"
    assert result.hit and result.source == "store"
    assert result.span_id is not None and result.trace_id is not None


def test_connect_cluster_topology():
    session = repro.connect(shards=3, replication_factor=2,
                            libraries=make_libs(), seed=b"t-cluster")
    assert session.is_cluster
    assert session.cluster.shard_ids == ("shard-0", "shard-1", "shard-2")
    assert session.execute(DESC, b"xyz") == b"xyzxyz"
    with pytest.raises(SpeedError):
        session.store  # single-store accessor must refuse on a cluster


def test_single_session_refuses_cluster_accessors():
    session = repro.connect(libraries=make_libs(), seed=b"t-single")
    with pytest.raises(SpeedError):
        session.cluster


def test_mark_decorator_and_batch_map():
    session = repro.connect(seed=b"t-mark")

    @session.mark(version="1.0")
    def triple(data: bytes) -> bytes:
        return data * 3

    assert triple(b"a") == b"aaa"
    session.flush_puts()
    results = triple.map_results([b"a", b"b", b"a"])
    assert [r.value for r in results] == [b"aaa", b"bbb", b"aaa"]
    assert results[0].hit and results[0].source == "store"
    assert results[2].hit  # intra-batch duplicate
    assert triple.map([b"c"]) == [b"ccc"]


def test_deduplicable_is_cached_per_description():
    session = repro.connect(libraries=make_libs(), seed=b"t-cache")
    assert session.deduplicable(DESC) is session.deduplicable(DESC)
    custom = session.deduplicable(DESC, native_factor=2.0)
    assert custom is not session.deduplicable(DESC)


def test_sibling_shares_store_and_tracer():
    session_a = repro.connect(libraries=make_libs(), seed=b"t-sibling")
    session_b = session_a.sibling("app-b")
    assert session_b.deployment is session_a.deployment
    assert session_b.tracer is session_a.tracer
    assert session_a.execute(DESC, b"zz") == b"zzzz"
    session_a.flush_puts()
    result = session_b.execute_result(DESC, b"zz")
    assert result.hit, "sibling applications share dedup results"


def test_connect_with_machine_name_and_tracing_off():
    session = repro.connect(machine="machine-x", seed=b"t-mach", tracing=False)
    assert session.platform.name == "machine-x"
    assert not session.tracer.enabled
    assert session.last_trace() == []
    assert session.trace_tree() == []
    assert session.phase_breakdown() == {}
    assert session.slow_calls() == []


# -- unified metrics -------------------------------------------------------
def test_snapshot_uses_canonical_dotted_keys_only():
    session = repro.connect(libraries=make_libs(), seed=b"t-metrics")
    session.execute(DESC, b"m")
    session.flush_puts()
    session.execute(DESC, b"m")
    snap = session.snapshot()
    assert all("." in key for key in snap)
    assert snap["runtime.calls"] == 2
    assert snap["runtime.hits"] == 1
    assert snap["store.gets"] == 2
    assert json.loads(session.to_json())["runtime.calls"] == 2


def test_cluster_snapshot_namespaces_each_shard():
    session = repro.connect(shards=2, libraries=make_libs(), seed=b"t-cm")
    session.execute(DESC, b"m")
    session.flush_puts()
    snap = session.snapshot()
    assert snap["router.gets"] == 1
    assert "store.shard-0.gets" in snap
    assert "store.shard-1.gets" in snap
    assert snap["store.shard-0.gets"] + snap["store.shard-1.gets"] >= 1


def test_cluster_snapshot_namespaces_dotted_subgroups_per_shard():
    # Dotted store sub-groups (restore.*, durable.*) would collide across
    # shards if emitted verbatim; each must carry its shard id.
    session = repro.connect(shards=2, libraries=make_libs(), seed=b"t-cm2",
                            store_config=StoreConfig(durable=True))
    session.execute(DESC, b"m")
    session.flush_puts()
    for sid in list(session.cluster.shards):
        session.power_fail_shard(sid)
    snap = session.snapshot()
    for sid in ("shard-0", "shard-1"):
        assert snap[f"store.{sid}.restore.power_fails"] == 1
        assert snap[f"store.{sid}.durable.recoveries"] == 1
    assert "restore.power_fails" not in snap


# -- errors ----------------------------------------------------------------
def test_error_codes_registry():
    codes = error_codes()
    assert codes["quota_exceeded"] is QuotaExceededError
    assert codes["no_live_owner"] is NoLiveOwnerError
    assert error_for_code("quota_exceeded") is QuotaExceededError
    assert error_for_code("not-a-code") is SpeedError
    assert issubclass(QuotaExceededError, StoreError)
    assert len(set(codes)) == len(codes)


def test_error_classes_exported_from_package_root():
    for name in ("SpeedError", "StoreError", "QuotaExceededError",
                 "NoLiveOwnerError", "VerificationError", "ChannelError",
                 "TransportError", "DedupError", "error_codes",
                 "error_for_code"):
        assert hasattr(repro, name), name
