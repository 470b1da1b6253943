"""Confidentiality on the wire: the host adversary observing all traffic
learns nothing about code, inputs, or results (§II-C design goal)."""

from repro.deployment import Deployment
from repro.security import WireTapAdversary
from tests.conftest import DOUBLE_DESC, double_bytes, make_libs

SECRET_INPUT = b"TOP-SECRET-INPUT-DATA-0123456789"


class TestWireTap:
    def test_no_plaintext_on_the_wire(self):
        d = Deployment(seed=b"wiretap")
        expected_result = double_bytes(SECRET_INPUT)
        tap = WireTapAdversary(known_secrets=[SECRET_INPUT, expected_result])
        d.network.add_tap(tap)

        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        out = dedup(SECRET_INPUT)
        app.runtime.flush_puts()
        out2 = dedup(SECRET_INPUT)
        assert out == out2 == expected_result

        assert tap.observation.total_messages >= 4  # GET/PUT + responses
        assert tap.observation.plaintext_sightings == 0

    def test_without_sgx_store_results_do_cross_in_protected_form_only(self):
        # Even in the no-SGX store variant the *result* is still the
        # app-side AEAD ciphertext [res]; only channel protection is gone.
        from repro.store.resultstore import StoreConfig

        d = Deployment(seed=b"wiretap-2", store_config=StoreConfig(use_sgx=False))
        expected_result = double_bytes(SECRET_INPUT)
        tap = WireTapAdversary(known_secrets=[expected_result])
        d.network.add_tap(tap)
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        dedup(SECRET_INPUT)
        app.runtime.flush_puts()
        dedup(SECRET_INPUT)
        assert tap.observation.plaintext_sightings == 0

    def test_unic_baseline_leaks_by_contrast(self):
        from repro.baselines import UnicRuntime, UnicStore

        store = UnicStore(mac_key=b"\x00" * 32)
        runtime = UnicRuntime(store, double_bytes,
                              encode=lambda b: b, decode=lambda b: b)
        runtime.call(SECRET_INPUT, SECRET_INPUT)
        tag = next(iter(store.entries))
        assert store.leak(tag) == double_bytes(SECRET_INPUT)  # plaintext at rest
