"""Long-running end-to-end scenarios combining every subsystem.

These are the "does the whole machine hold together" tests: realistic
multi-tenant operation with eviction, quotas, adversarial interference,
cross-machine replication, and a restart — with global invariants
checked throughout.
"""

import numpy as np

from repro.apps.registry import pattern_case_study
from repro.core.description import TrustedLibraryRegistry
from repro.deployment import Deployment
from repro.security import HostAdversary
from repro.sgx.attestation import AttestationService
from repro.store import QuotaPolicy
from repro.store.persistence import restore_store, snapshot_store
from repro.store.resultstore import StoreConfig
from repro.store.sync import replicate_popular
from repro.workloads import generate_rules, packet_trace
from tests.conftest import DOUBLE_DESC, carry_snapshot, double_bytes, make_libs


class TestIdsScenario:
    """A two-tenant IDS over a realistic trace, under store pressure."""

    def test_full_lifecycle(self):
        rules = generate_rules(200, seed=11)
        trace = packet_trace(80, payload_size=384, duplicate_fraction=0.5,
                             malicious_fraction=0.2, seed=11)
        d = Deployment(
            seed=b"scenario-ids",
            store_config=StoreConfig(
                capacity_entries=32,
                quota=QuotaPolicy(max_entries_per_app=24),
            ),
        )
        case = pattern_case_study(rules)
        tenants = []
        for name in ("ids-a", "ids-b"):
            libs = TrustedLibraryRegistry()
            libs.register(case.library)
            app = d.create_application(name, libs)
            tenants.append((app, case.deduplicable(app)))

        reference = {}
        for index, payload in enumerate(trace):
            app, scan = tenants[index % 2]
            matches = scan(payload)
            app.runtime.flush_puts()
            # Results must be consistent regardless of which tenant
            # computed them or whether they came from the store.
            if payload in reference:
                assert matches == reference[payload]
            else:
                reference[payload] = matches
            # Store invariants under eviction + quota pressure.
            assert len(d.store) <= 32
            assert len(d.store.blobstore) == len(d.store)

        total_hits = sum(app.runtime.stats.hits for app, _ in tenants)
        assert total_hits > 10  # duplication was actually exploited
        assert d.store.stats.puts_rejected == 0

    def test_lifecycle_with_adversary_inline(self):
        d = Deployment(seed=b"scenario-adv")
        app = d.create_application("victim", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        adversary = HostAdversary(d.platform.host)
        rng = np.random.default_rng(13)
        inputs = [b"doc-%d" % int(rng.integers(0, 6)) for _ in range(40)]
        for index, data in enumerate(inputs):
            if index % 10 == 9:
                for name in d.platform.host.names(d.store.blobstore.prefix):
                    adversary.flip(name)  # periodic corruption sweeps
            assert dedup(data) == double_bytes(data)
            app.runtime.flush_puts()
        # Despite repeated poisoning, every answer was correct, and the
        # store detected each tampered blob it served.
        assert d.store.stats.tamper_detected > 0
        assert app.runtime.stats.verification_failures == 0  # store caught all


class TestFleetScenario:
    """Three machines: two edge stores replicating into one master,
    surviving a master restart."""

    def test_replicate_restart_reuse(self):
        service = AttestationService()
        edge_a = Deployment(seed=b"fleet-a", machine="edge-a",
                            attestation_service=service)
        edge_b = Deployment(seed=b"fleet-b", machine="edge-b",
                            attestation_service=service)
        master = Deployment(seed=b"fleet-m", machine="master",
                            attestation_service=service)

        # Both edges compute overlapping work.
        for deployment, name in ((edge_a, "app-a"), (edge_b, "app-b")):
            app = deployment.create_application(name, make_libs())
            dedup = app.deduplicable(DOUBLE_DESC)
            for i in range(4):
                dedup(b"shared-%d" % i)
                app.runtime.flush_puts()
                dedup(b"shared-%d" % i)  # make entries "popular"

        r1 = replicate_popular(service, edge_a.store, master.store)
        r2 = replicate_popular(service, edge_b.store, master.store)
        assert r1.transferred == 4
        assert r2.transferred == 0 and r2.duplicates == 4  # no redundancy

        # Master restarts; its sealed snapshot survives.
        snapshot_store(master.store)
        master_restarted = Deployment(seed=b"fleet-m", machine="master",
                                      attestation_service=AttestationService())
        carry_snapshot(master.store, master_restarted.store)
        report = restore_store(master_restarted.store)
        assert report.entries_restored == 4

        # A fresh app on the restarted master reuses everything.
        app = master_restarted.create_application("app-m", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        for i in range(4):
            assert dedup(b"shared-%d" % i) == double_bytes(b"shared-%d" % i)
        assert app.runtime.stats.hits == 4
