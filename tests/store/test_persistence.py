"""Store persistence: seal, restart, restore (MRSIGNER policy)."""

import pytest

from repro.deployment import Deployment
from repro.errors import SealingError, StoreError
from repro.security import HostAdversary
from repro.store.persistence import restore_store, snapshot_name, snapshot_store
from repro.store.resultstore import StoreConfig
from tests.conftest import DOUBLE_DESC, carry_snapshot, double_bytes, make_libs


def filled_deployment(seed=b"persist-a", n=4):
    d = Deployment(seed=seed)
    app = d.create_application("writer", make_libs())
    dedup = app.deduplicable(DOUBLE_DESC)
    for i in range(n):
        dedup(b"doc-%d" % i)
        app.runtime.flush_puts()
    return d, app, dedup


class TestSnapshotRestore:
    def test_roundtrip_on_same_platform(self):
        d, app, dedup = filled_deployment()
        snapshot_store(d.store)

        # "Restart": a second store instance on the *same physical
        # machine* (same seed + machine name -> same sealing fabric, as
        # on real hardware where seal keys are CPU-bound).
        fresh = Deployment(seed=b"persist-a")
        carry_snapshot(d.store, fresh.store)
        report = restore_store(fresh.store)
        assert report.entries_restored == 4
        assert report.entries_skipped == 0
        assert len(fresh.store) == 4

        # A new application sees every restored result as a hit.
        app2 = fresh.create_application("reader", make_libs())
        dedup2 = app2.deduplicable(DOUBLE_DESC)
        for i in range(4):
            assert dedup2(b"doc-%d" % i) == double_bytes(b"doc-%d" % i)
        assert app2.runtime.stats.hits == 4

    def test_restore_is_idempotent(self):
        d, _, _ = filled_deployment(seed=b"persist-b")
        snapshot_store(d.store)
        report = restore_store(d.store)  # restore onto itself
        assert report.entries_restored == 0
        assert report.entries_skipped == 4

    def test_tampered_snapshot_rejected(self):
        d, _, _ = filled_deployment(seed=b"persist-c")
        snapshot_store(d.store)
        HostAdversary(d.platform.host).flip(snapshot_name(d.store), offset=-1, xor=1)
        fresh = Deployment(seed=b"persist-c")
        carry_snapshot(d.store, fresh.store)
        with pytest.raises(SealingError):
            restore_store(fresh.store)

    def test_requires_sgx_store(self):
        d = Deployment(seed=b"persist-d", store_config=StoreConfig(use_sgx=False))
        with pytest.raises(StoreError):
            snapshot_store(d.store)

    def test_restore_without_a_snapshot_is_a_store_error(self):
        with pytest.raises(StoreError, match="no snapshot"):
            restore_store(Deployment(seed=b"persist-none").store)

    def test_restored_results_still_cross_app_protected(self):
        # Restoration must not weaken the scheme: an app with different
        # code still cannot use the restored entries.
        from repro import FunctionDescription, TrustedLibrary, TrustedLibraryRegistry

        d, _, _ = filled_deployment(seed=b"persist-e")
        snapshot_store(d.store)
        fresh = Deployment(seed=b"persist-e")
        carry_snapshot(d.store, fresh.store)
        restore_store(fresh.store)

        def impostor(data: bytes) -> bytes:
            return data * 3  # different code, same description

        libs = TrustedLibraryRegistry()
        libs.register(TrustedLibrary("testlib", "1.0").add("bytes double(bytes)", impostor))
        app = fresh.create_application("impostor", libs)
        dedup = app.deduplicable(DOUBLE_DESC)
        out = dedup(b"doc-0")
        assert out == impostor(b"doc-0")         # computed, not reused
        assert app.runtime.stats.hits == 0
