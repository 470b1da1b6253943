"""§III-D: cache poisoning is detected; applications never consume
poisoned results."""

from repro.core.serialization import AnyParser, default_registry
from repro.core.tag import derive_tag
from repro.deployment import Deployment
from repro.security import HostAdversary
from repro.store.resultstore import StoreConfig
from tests.conftest import DOUBLE_DESC, double_bytes, make_libs


def flip_every_result(d) -> int:
    """The host flips a byte in every stored ciphertext; returns how many."""
    adversary = HostAdversary(d.platform.host)
    names = d.platform.host.names(d.store.blobstore.prefix)
    for name in names:
        adversary.flip(name, offset=len(d.platform.host.get(name)) // 2)
    return len(names)


def fill_store(deployment, app, dedup, inputs):
    for data in inputs:
        dedup(data)
        app.runtime.flush_puts()


class TestCachePoisoning:
    def test_store_detects_blob_tampering(self):
        d = Deployment(seed=b"poison-1")
        app = d.create_application("victim", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        fill_store(d, app, dedup, [b"a", b"b", b"c"])
        assert flip_every_result(d) == 3
        # Every subsequent call detects and recomputes correctly: the
        # store drops each poisoned entry and serves a miss.
        for data in (b"a", b"b", b"c"):
            assert dedup(data) == double_bytes(data)
            app.runtime.flush_puts()
        assert d.store.stats.tamper_detected == 3
        assert app.runtime.stats.hits == 0
        assert app.runtime.stats.misses == 6
        # The re-computed results were re-stored and are usable again.
        for data in (b"a", b"b", b"c"):
            assert dedup(data) == double_bytes(data)
        assert app.runtime.stats.hits == 3

    def test_application_aead_is_last_line_of_defence(self):
        # Store-side digest disabled: poisoned bytes reach the app, whose
        # authenticated decryption rejects them (Fig. 3 "⊥ → Ret false").
        d = Deployment(seed=b"poison-2",
                       store_config=StoreConfig(verify_blob_digest=False))
        app = d.create_application("victim", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        fill_store(d, app, dedup, [b"a"])
        flip_every_result(d)
        assert dedup(b"a") == double_bytes(b"a")
        assert app.runtime.stats.verification_failures == 1

    def test_malicious_put_cannot_replace_existing_result(self):
        # First-write-wins: a forged PUT under an existing tag is ignored.
        d = Deployment(seed=b"poison-3")
        app = d.create_application("victim", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        fill_store(d, app, dedup, [b"data"])

        func_identity = app.runtime.libraries.function_identity(DOUBLE_DESC)
        input_bytes = AnyParser(default_registry()).encode(b"data")
        tag = derive_tag(func_identity, input_bytes)

        from repro.net.messages import PutRequest

        attacker_enclave = d.platform.create_enclave("attacker", b"attacker-code")
        attacker = d.store.connect("attacker-addr", app_enclave=attacker_enclave)
        response = attacker.call(PutRequest(
            tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16,
            sealed_result=b"forged garbage", app_id="attacker",
        ))
        assert response.reason == "already stored"
        # The honest application still gets its genuine result as a hit.
        assert dedup(b"data") == double_bytes(b"data")
        assert app.runtime.stats.verification_failures == 0

    def test_preemptive_poisoning_is_rejected_by_verification(self):
        # The attacker stores garbage under the victim's tag *before* the
        # victim ever computes: the victim's verification protocol
        # rejects it and the correct result is computed and returned.
        d = Deployment(seed=b"poison-4")
        app = d.create_application("victim", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)

        func_identity = app.runtime.libraries.function_identity(DOUBLE_DESC)
        input_bytes = AnyParser(default_registry()).encode(b"data")
        tag = derive_tag(func_identity, input_bytes)

        from repro.net.messages import PutRequest

        attacker_enclave = d.platform.create_enclave("attacker", b"attacker-code")
        attacker = d.store.connect("attacker-addr", app_enclave=attacker_enclave)
        attacker.call(PutRequest(
            tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16,
            sealed_result=b"pre-poisoned", app_id="attacker",
        ))
        assert dedup(b"data") == double_bytes(b"data")
        assert app.runtime.stats.verification_failures == 1

    def test_entry_forged_under_another_key_fails_only_its_item_in_a_batch(self):
        # The forged entry is well formed and sealed under *a* key, just not
        # the one its locking hash unwraps: its item is rejected by the AEAD
        # pass its whole batch shares, recomputed, and counted once; every
        # other item of the batch is still a verified store hit.
        from repro.crypto import gcm
        from repro.net.messages import PutRequest

        d = Deployment(seed=b"poison-5")
        app = d.create_application("victim", make_libs())
        genuine = [b"input-%02d" % i for i in range(2 * gcm._GROUP_MIN_RECORDS)]
        app.runtime.execute_many(DOUBLE_DESC, genuine)
        app.runtime.flush_puts()

        func_identity = app.runtime.libraries.function_identity(DOUBLE_DESC)
        tag = derive_tag(func_identity, AnyParser(default_registry()).encode(b"forged"))
        attacker_enclave = d.platform.create_enclave("attacker", b"attacker-code")
        attacker = d.store.connect("attacker-addr", app_enclave=attacker_enclave)
        attacker.call(PutRequest(
            tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16,
            sealed_result=gcm.seal(b"K" * 16, b"i" * 12, double_bytes(b"forged"), aad=tag),
            app_id="attacker",
        ))

        reader = d.create_application("reader", make_libs())
        batch = genuine[:3] + [b"forged"] + genuine[3:]
        results = reader.runtime.execute_many_results(DOUBLE_DESC, batch)
        assert [r.value for r in results] == [double_bytes(x) for x in batch]
        assert [r.source for r in results] == ["store"] * 3 + ["computed"] + ["store"] * 5
        assert reader.runtime.stats.verification_failures == 1
