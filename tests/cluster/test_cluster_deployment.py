"""End-to-end: DedupRuntime over a sharded cluster behaves exactly like
the single-store deployment — same results, same security guarantees."""

from repro.core.serialization import AnyParser, default_registry
from repro.core.tag import derive_tag
from repro.deployment import Deployment
from repro.security import HostAdversary
from repro.store.resultstore import StoreConfig

from tests.conftest import DOUBLE_DESC, arena_name, double_bytes, make_libs
from tests.cluster.conftest import make_cluster


def inputs(n, prefix=b"doc"):
    return [prefix + i.to_bytes(4, "big") + b"x" * 24 for i in range(n)]


def tag_of(app, data):
    func_identity = app.runtime.libraries.function_identity(DOUBLE_DESC)
    encoded = AnyParser(default_registry()).encode(data)
    return derive_tag(func_identity, encoded)


class TestBitIdenticalWithSingleStore:
    def test_execute_matches_single_store(self):
        single = Deployment(seed=b"xcheck-single")
        app_s = single.create_application("app", make_libs())
        dedup_s = app_s.deduplicable(DOUBLE_DESC)
        clustered = make_cluster(seed=b"xcheck-cluster")
        app_c = clustered.create_application("app", make_libs())
        dedup_c = app_c.deduplicable(DOUBLE_DESC)

        corpus = inputs(12) + inputs(12)  # second half repeats: hits
        out_single = [dedup_s(d) for d in corpus]
        out_cluster = [dedup_c(d) for d in corpus]
        single.flush_all_puts()
        clustered.flush_all_puts()
        assert out_cluster == out_single == [double_bytes(d) for d in corpus]
        assert app_c.runtime.stats.hits == app_s.runtime.stats.hits
        assert app_c.runtime.stats.misses == app_s.runtime.stats.misses
        assert app_c.runtime.puts_unacknowledged == 0

    def test_execute_many_matches_single_store(self):
        single = Deployment(seed=b"xmany-single")
        app_s = single.create_application("app", make_libs())
        clustered = make_cluster(seed=b"xmany-cluster")
        app_c = clustered.create_application("app", make_libs())

        corpus = inputs(10) + inputs(6)  # intra-batch duplicates
        out_single = app_s.runtime.execute_many(DOUBLE_DESC, corpus)
        out_cluster = app_c.runtime.execute_many(DOUBLE_DESC, corpus)
        single.flush_all_puts()
        clustered.flush_all_puts()
        assert out_cluster == out_single == [double_bytes(d) for d in corpus]
        # Rerunning the batch hits the cluster for every item.
        rerun = app_c.runtime.execute_many(DOUBLE_DESC, corpus)
        assert rerun == out_cluster
        assert app_c.runtime.puts_unacknowledged == 0

    def test_cross_app_sharing_through_cluster(self):
        d = make_cluster(seed=b"xshare")
        app_a = d.create_application("app-a", make_libs())
        app_b = d.create_application("app-b", make_libs())
        dedup_a = app_a.deduplicable(DOUBLE_DESC)
        dedup_b = app_b.deduplicable(DOUBLE_DESC)
        corpus = inputs(8)
        out_a = [dedup_a(x) for x in corpus]
        d.flush_all_puts()
        out_b = [dedup_b(x) for x in corpus]
        assert out_b == out_a
        assert app_b.runtime.stats.hits == len(corpus)
        assert app_b.runtime.stats.misses == 0


class TestRuntimeSurvivesShardDeath:
    def test_execute_recomputes_when_unreplicated_entry_dies(self):
        d = make_cluster(n_shards=4, replication_factor=1, seed=b"die-rf1")
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        data = inputs(1)[0]
        assert dedup(data) == double_bytes(data)
        app.runtime.flush_puts()
        d.cluster.kill_shard(d.cluster.owners_of(tag_of(app, data))[0])
        # RF 1 and the only holder is dead: the runtime treats the
        # unavailability as a miss and recomputes — never an error.
        assert dedup(data) == double_bytes(data)
        assert app.runtime.stats.misses == 2

    def test_execute_hits_replica_when_primary_dies(self):
        d = make_cluster(n_shards=4, replication_factor=2, seed=b"die-rf2")
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        data = inputs(1)[0]
        dedup(data)
        app.runtime.flush_puts()
        d.cluster.kill_shard(d.cluster.owners_of(tag_of(app, data))[0])
        assert dedup(data) == double_bytes(data)
        assert app.runtime.stats.hits == 1
        assert app.runtime.client.stats.failovers == 1

    def test_execute_many_with_one_shard_down(self):
        d = make_cluster(n_shards=4, replication_factor=2, seed=b"die-many")
        app = d.create_application("app", make_libs())
        corpus = inputs(16)
        expected = app.runtime.execute_many(DOUBLE_DESC, corpus)
        app.runtime.flush_puts()
        d.cluster.kill_shard("shard-0")
        rerun = app.runtime.execute_many(DOUBLE_DESC, corpus)
        assert rerun == expected
        assert app.runtime.stats.misses == len(corpus)  # only the first run


class TestTamperedReplicaNeverServes:
    def test_store_side_digest_catches_tampered_replica(self):
        d = make_cluster(n_shards=4, replication_factor=2, seed=b"tamper-1")
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        data = inputs(1)[0]
        dedup(data)
        app.runtime.flush_puts()
        tag = tag_of(app, data)
        primary, replica = d.cluster.owners_of(tag)
        store = d.cluster.shards[replica].store
        HostAdversary(store.platform.host).flip(arena_name(store, tag))
        d.cluster.kill_shard(primary)
        # The replica detects the bad digest, drops the entry, serves a
        # miss; the runtime recomputes the correct result.
        assert dedup(data) == double_bytes(data)
        assert d.cluster.shards[replica].store.stats.tamper_detected == 1
        assert app.runtime.stats.verification_failures == 0
        assert app.runtime.stats.misses == 2

    def test_fig3_verification_is_last_line_against_replicas(self):
        # Store-side digest disabled: the poisoned ciphertext reaches the
        # app, whose Fig. 3 MAC/tag verification rejects it and
        # recomputes — a tampered replica can never serve a result.
        d = make_cluster(
            n_shards=4, replication_factor=2, seed=b"tamper-2",
            store_config=StoreConfig(verify_blob_digest=False),
        )
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        data = inputs(1)[0]
        dedup(data)
        app.runtime.flush_puts()
        tag = tag_of(app, data)
        primary, replica = d.cluster.owners_of(tag)
        store = d.cluster.shards[replica].store
        HostAdversary(store.platform.host).flip(arena_name(store, tag))
        d.cluster.kill_shard(primary)
        assert dedup(data) == double_bytes(data)
        assert app.runtime.stats.verification_failures == 1


class TestIntrospection:
    def test_snapshot_shape(self, cluster4):
        app = cluster4.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        for data in inputs(6):
            dedup(data)
        cluster4.flush_all_puts()
        snap = cluster4.cluster.snapshot()
        assert snap["replication_factor"] == 2
        assert set(snap["shards"]) == set(cluster4.cluster.shard_ids)
        assert snap["total_entries"] == sum(
            s["entries"] for s in snap["shards"].values()
        )
        assert snap["total_entries"] == 12  # 6 entries x RF 2
        for shard in snap["shards"].values():
            assert shard["alive"] is True
            assert 0.0 <= shard["load_share"] <= 1.0

    def test_runtime_snapshot_includes_cluster_traffic(self, cluster4):
        app = cluster4.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        data = inputs(1)[0]
        dedup(data)
        cluster4.flush_all_puts()
        dedup(data)
        snap = app.runtime.snapshot()
        assert snap["runtime.calls"] == 2
        assert snap["runtime.hits"] == 1
        assert snap["runtime.puts_accepted"] == 1
        assert snap["runtime.pending_puts"] == 0
