"""Session topology API: add_shard/remove_shard/rebalance, structured
TopologyReport, the report rendering convention, and the raw
StoreCluster streaming entry point (``begin_plan``) underneath."""

import warnings

from repro import TopologyPlan, TopologyReport, connect
from repro.cluster import MigrationReport
from repro.report import ReportMixin

from tests.cluster.conftest import make_cluster, make_get, make_put, raw_router


def warm_session(n_inputs=30, seed=b"topo-session", shards=3):
    session = connect(shards=shards, replication_factor=2, seed=seed,
                      tracing=False)

    @session.mark(version="1.0")
    def topo_kernel(data: bytes) -> bytes:
        return bytes(b ^ 0x77 for b in data)

    inputs = [i.to_bytes(4, "big") * 16 for i in range(n_inputs)]
    values = topo_kernel.map(inputs)
    session.flush_puts()
    return session, topo_kernel, inputs, values


class TestSessionAddShard:
    def test_add_shard_returns_structured_report(self):
        session, kernel, inputs, values = warm_session()
        report = session.add_shard()
        assert isinstance(report, TopologyReport)
        assert report.action == "add_shard"
        assert report.shard_id == "shard-3"
        assert report.ranges_moved > 0
        assert report.entries_moved > 0
        assert report.bytes_moved > 0
        assert report.duration_s > 0
        assert kernel.map(inputs) == values

    def test_add_shard_registers_metrics_source(self):
        session, *_ = warm_session(seed=b"topo-metrics")
        sibling = session.sibling("topo-reader")
        report = session.add_shard()
        for subject in (session, sibling):
            keys = subject.metrics.snapshot()
            assert any(k.startswith(f"store.{report.shard_id}.") for k in keys)

    def test_ownership_exact_after_add(self):
        session, kernel, inputs, _ = warm_session(seed=b"topo-own")
        session.add_shard()
        cluster = session.cluster
        for tag in session.runtime.acked_put_tags:
            assert cluster.holders_of(tag) == sorted(cluster.owners_of(tag))


class TestSessionRemoveShard:
    def test_remove_shard_returns_structured_report(self):
        session, kernel, inputs, values = warm_session(
            seed=b"topo-rm", shards=4
        )
        report = session.remove_shard("shard-1")
        assert isinstance(report, TopologyReport)
        assert report.action == "remove_shard"
        assert report.shard_id == "shard-1"
        assert "shard-1" not in session.cluster.shards
        assert kernel.map(inputs) == values

    def test_remove_shard_unregisters_metrics_source(self):
        session, *_ = warm_session(seed=b"topo-rm-metrics", shards=4)
        sibling = session.sibling("topo-reader")
        session.remove_shard("shard-2")
        for subject in (session, sibling):
            keys = subject.metrics.snapshot()
            assert not any(k.startswith("store.shard-2.") for k in keys)


class TestSessionRebalance:
    def test_rebalance_is_idempotent_on_a_settled_cluster(self):
        session, *_ = warm_session(seed=b"topo-rebal")
        session.add_shard()
        report = session.rebalance()
        assert isinstance(report, TopologyReport)
        assert report.action == "rebalance"
        assert report.entries_moved == 0


class TestTopologyReportRendering:
    def test_reports_share_the_mixin_convention(self):
        assert issubclass(TopologyReport, ReportMixin)
        assert issubclass(MigrationReport, ReportMixin)

    def test_to_dict_is_flat_and_json_ready(self):
        import json

        session, *_ = warm_session(seed=b"topo-dict")
        report = session.add_shard()
        data = report.to_dict()
        assert data["action"] == "add_shard"
        assert data["entries_moved"] == report.entries_moved
        json.dumps(data)

    def test_table_renders_every_field(self):
        session, *_ = warm_session(seed=b"topo-table")
        report = session.add_shard()
        text = report.table()
        assert "TopologyReport" in text
        for name in ("action", "shard_id", "entries_moved", "duration_s"):
            assert name in text


class TestStreamingEntryPoints:
    def test_begin_plan_join_runs_and_serves(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"dep-add")
        router = raw_router(d)
        puts = [make_put(i, prefix=b"dep") for i in range(20)]
        for put in puts:
            assert router.call(put).accepted
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        report = migrator.run()
        assert isinstance(report, MigrationReport)
        (joiner,) = migrator.joiners
        assert joiner in d.cluster.ring.shards
        for put in puts:
            assert router.call(make_get(put)).found

    def test_begin_plan_leave_runs(self):
        d = make_cluster(n_shards=4, replication_factor=2, seed=b"dep-rm")
        report = d.cluster.begin_plan(TopologyPlan().leave("shard-0")).run()
        assert isinstance(report, MigrationReport)
        assert "shard-0" not in d.cluster.shards

    def test_streaming_entry_points_do_not_warn(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"dep-clean")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            migrator = d.cluster.begin_plan(TopologyPlan().join())
            migrator.run()
