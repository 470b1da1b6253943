"""Baselines: UNIC plaintext memoization and runtime presets."""

import pytest

from repro.baselines import (
    UnicRuntime,
    UnicStore,
    no_dedup_runtime_config,
    single_key_runtime_config,
)
from repro.core.runtime import RuntimeConfig
from repro.core.scheme import CrossAppScheme, SingleKeyScheme
from repro.crypto.hashes import hmac_sha256
from repro.errors import IntegrityError
from repro.sgx.cost_model import SimClock


def reverse(data: bytes) -> bytes:
    return bytes(reversed(data))


def make_unic(clock=None):
    store = UnicStore(mac_key=b"\x01" * 32)
    runtime = UnicRuntime(store, reverse, encode=lambda b: b, decode=lambda b: b,
                          clock=clock)
    return store, runtime


class TestUnic:
    def test_miss_then_hit(self):
        store, runtime = make_unic()
        out1 = runtime.call(b"abc", b"abc")
        out2 = runtime.call(b"abc", b"abc")
        assert out1 == out2 == b"cba"
        assert runtime.stats.hits == 1
        assert runtime.stats.misses == 1

    def test_plaintext_is_leaked_to_the_host(self):
        # The architectural weakness SPEED fixes: the host can read
        # cached results directly.
        store, runtime = make_unic()
        runtime.call(b"secret input", b"secret input")
        tag = next(iter(store.entries))
        assert store.leak(tag) == reverse(b"secret input")

    def test_mac_detects_replacement_without_key(self):
        store, runtime = make_unic()
        runtime.call(b"abc", b"abc")
        tag = next(iter(store.entries))
        store.overwrite(tag, b"poisoned", b"\x00" * 32)
        with pytest.raises(IntegrityError):
            store.get(tag)

    def test_system_key_holder_can_forge(self):
        # ...but anyone holding the single system-wide key forges freely.
        store, runtime = make_unic()
        runtime.call(b"abc", b"abc")
        tag = next(iter(store.entries))
        forged = b"attacker result"
        store.overwrite(tag, forged, hmac_sha256(store.mac_key, tag + forged))
        assert store.get(tag) == forged

    def test_clock_charged(self):
        clock = SimClock()
        _, runtime = make_unic(clock)
        runtime.call(b"abc", b"abc")
        assert clock.cycles > 0


class TestPresets:
    def test_no_dedup(self):
        config = no_dedup_runtime_config("app")
        assert not config.dedup_enabled

    def test_single_key(self):
        config = single_key_runtime_config("app")
        assert isinstance(config.scheme, SingleKeyScheme)
        assert config.dedup_enabled

    def test_cross_app(self):
        config = RuntimeConfig(app_id="app")  # the cross-application design is the default
        assert isinstance(config.scheme, CrossAppScheme)

    def test_app_id_threaded(self):
        assert no_dedup_runtime_config("x").app_id == "x"
