"""Sharded ResultStore cluster: consistent-hash routing, replication,
and failover over the dedup tag space.

The paper's ResultStore is one service (Fig. 1): here, a one-shard
cluster whose shard sits on the app machine.  This package scales it
out: a :class:`ShardRing` partitions the tag space across N independent
:class:`~repro.store.resultstore.ResultStore` shards (each on its own
simulated machine), a :class:`StoreCluster` runs them, and a
:class:`ClusterRouter` gives every application's DedupRuntime the
single-store call surface while routing, replicating, and failing over
underneath.  Topology changes stream through a :class:`RangeMigrator`
behind a dual-ownership window, so the cluster grows and shrinks while
serving.  See DESIGN.md ("Cluster topology") for what stays faithful
to the paper per shard and what is an extension beyond it.
"""

from .cluster import ClusterConfig, ShardNode, StoreCluster
from .migration import (
    MigrationReport,
    RangeMigrator,
    rebalance,
    transfer_entries,
)
from .ring import RING_SIZE, MigrationRange, ShardRing, TopologyPlan, tag_point
from .router import NO_LIVE_OWNER, ClusterRouter, RouterStats

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "MigrationRange",
    "MigrationReport",
    "NO_LIVE_OWNER",
    "RING_SIZE",
    "RangeMigrator",
    "RouterStats",
    "ShardNode",
    "ShardRing",
    "StoreCluster",
    "TopologyPlan",
    "rebalance",
    "tag_point",
    "transfer_entries",
]
