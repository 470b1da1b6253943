"""DedupRuntime: the full Algorithm 1 / Algorithm 2 control flow."""

import pytest

from repro import RuntimeConfig
from repro.core.runtime import DedupRuntime
from repro.core.tag import derive_tag
from repro.deployment import Deployment
from repro.security import HostAdversary
from tests.conftest import DOUBLE_DESC, arena_name, double_bytes, make_libs


class TestMissThenHit:
    def test_initial_then_subsequent(self, app, dedup_double):
        out1 = dedup_double(b"payload")
        assert out1 == double_bytes(b"payload")
        app.runtime.flush_puts()
        out2 = dedup_double(b"payload")
        assert out2 == out1
        stats = app.runtime.stats
        assert stats.misses == 1 and stats.hits == 1

    def test_different_inputs_both_miss(self, app, dedup_double):
        dedup_double(b"a")
        app.runtime.flush_puts()
        dedup_double(b"b")
        assert app.runtime.stats.misses == 2

    def test_hit_is_cheaper_than_miss_for_slow_functions(self, deployment):
        # The paper's regime: a time-consuming function with a small
        # result benefits; a trivial function would not (§V-B).
        import hashlib

        from repro import FunctionDescription, TrustedLibrary, TrustedLibraryRegistry

        def slow_digest(data: bytes) -> bytes:
            out = data
            for _ in range(3000):
                out = hashlib.sha256(out).digest()
            return out

        libs = TrustedLibraryRegistry()
        libs.register(TrustedLibrary("slowlib", "1.0").add("digest(bytes)", slow_digest))
        app = deployment.create_application("slow-app", libs)
        d = app.deduplicable(FunctionDescription("slowlib", "1.0", "digest(bytes)"))
        d(b"payload")
        app.runtime.flush_puts()
        d(b"payload")
        miss, hit = app.runtime.stats.records
        assert hit.hit and not miss.hit
        assert hit.sim_seconds < miss.sim_seconds

    def test_records_capture_sizes(self, app, dedup_double):
        dedup_double(b"12345")
        record = app.runtime.stats.records[0]
        assert record.input_bytes > 0
        assert record.result_bytes > 0
        assert not record.hit


class TestCrossApplication:
    def test_second_app_reuses_result(self, deployment):
        app1 = deployment.create_application("app-1", make_libs())
        app2 = deployment.create_application("app-2", make_libs())
        d1 = app1.deduplicable(DOUBLE_DESC)
        d2 = app2.deduplicable(DOUBLE_DESC)
        assert d1(b"shared input") == d2(b"shared input")
        app1.runtime.flush_puts()
        assert app2.runtime.stats.hits == 0  # put was pending when it ran
        assert d2(b"shared input") == double_bytes(b"shared input")
        assert app2.runtime.stats.hits == 1

    def test_different_code_does_not_share(self, deployment):
        from repro import FunctionDescription, TrustedLibrary, TrustedLibraryRegistry

        def double_variant(data: bytes) -> bytes:
            return bytes(data) + bytes(data)  # different bytecode

        libs_b = TrustedLibraryRegistry()
        libs_b.register(
            TrustedLibrary("testlib", "1.0").add("bytes double(bytes)", double_variant)
        )
        app1 = deployment.create_application("honest", make_libs())
        app2 = deployment.create_application("variant", libs_b)
        d1 = app1.deduplicable(DOUBLE_DESC)
        d2 = app2.deduplicable(DOUBLE_DESC)
        d1(b"input")
        app1.runtime.flush_puts()
        d2(b"input")
        # Same description, different code -> different tag -> miss.
        assert app2.runtime.stats.hits == 0


class TestAsyncPut:
    def test_pending_until_flush(self, app, dedup_double):
        dedup_double(b"data")
        assert app.runtime.pending_put_count == 1
        flushed = app.runtime.flush_puts()
        assert flushed == 1
        assert app.runtime.pending_put_count == 0
        assert app.runtime.stats.puts_accepted == 1

    def test_unflushed_put_means_self_miss(self, app, dedup_double):
        dedup_double(b"data")
        dedup_double(b"data")  # PUT still queued -> miss again
        assert app.runtime.stats.misses == 2

    def test_sync_put_mode(self, deployment):
        app = deployment.create_application(
            "sync-app", make_libs(), RuntimeConfig(app_id="sync-app", async_put=False)
        )
        d = app.deduplicable(DOUBLE_DESC)
        d(b"data")
        assert app.runtime.pending_put_count == 0
        assert app.runtime.stats.puts_accepted == 1
        d(b"data")
        assert app.runtime.stats.hits == 1


class TestVerificationFallback:
    def test_poisoned_store_falls_back_to_compute(self, deployment):
        # Disable the store-side digest so the poisoned bytes reach the
        # application; its AEAD check must catch them (Fig. 3 -> false).
        from repro.store.resultstore import StoreConfig

        poisoned = Deployment(
            seed=b"poisoned", store_config=StoreConfig(verify_blob_digest=False)
        )
        app = poisoned.create_application("victim", make_libs())
        d = app.deduplicable(DOUBLE_DESC)
        d(b"data")
        app.runtime.flush_puts()
        func_identity = app.runtime.libraries.function_identity(DOUBLE_DESC)
        from repro.core.serialization import AnyParser, default_registry

        input_bytes = AnyParser(default_registry()).encode(b"data")
        tag = derive_tag(func_identity, input_bytes)
        HostAdversary(poisoned.platform.host).flip(arena_name(poisoned.store, tag))
        out = d(b"data")
        assert out == double_bytes(b"data")  # still correct
        assert app.runtime.stats.verification_failures == 1
        assert app.runtime.stats.hits == 0


class TestDedupDisabled:
    def test_baseline_mode_never_talks_to_store(self, deployment):
        app = deployment.create_application(
            "baseline", make_libs(), RuntimeConfig(app_id="b", dedup_enabled=False)
        )
        d = app.deduplicable(DOUBLE_DESC)
        d(b"data")
        d(b"data")
        assert deployment.store.stats.gets == 0
        assert deployment.store.stats.puts == 0
        assert app.runtime.stats.misses == 2


class TestEnclaveInteraction:
    def test_calls_enter_and_leave_enclave(self, app, dedup_double):
        before_ecalls = app.enclave.ecall_count
        before_ocalls = app.enclave.ocall_count
        dedup_double(b"data")
        assert app.enclave.ecall_count > before_ecalls
        assert app.enclave.ocall_count > before_ocalls
        assert not app.enclave.inside  # balanced

    def test_unknown_description_raises(self, app):
        from repro import FunctionDescription
        from repro.errors import DedupError

        with pytest.raises(DedupError):
            app.runtime.execute(
                FunctionDescription("ghostlib", "0", "f()"), b"data"
            )
