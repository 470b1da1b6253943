"""Untrusted blob arena: refs, accounting, and where the bytes live.

What the host can do to those bytes is ``tests/security/test_host_adversary.py``.
"""

import pytest

from repro.errors import StoreError
from repro.sgx.platform import HostStorage
from repro.store.blobstore import BlobStore


def arena() -> BlobStore:
    return BlobStore(HostStorage(), "store/arena/")


class TestBasics:
    def test_put_get(self):
        store = arena()
        ref = store.put(b"ciphertext")
        assert store.get(ref) == b"ciphertext"

    def test_refs_unique(self):
        store = arena()
        assert store.put(b"a") != store.put(b"a")

    def test_dangling_ref(self):
        with pytest.raises(StoreError):
            arena().get(42)

    def test_delete(self):
        store = arena()
        ref = store.put(b"abc")
        store.delete(ref)
        with pytest.raises(StoreError):
            store.get(ref)

    def test_double_free(self):
        store = arena()
        ref = store.put(b"abc")
        store.delete(ref)
        with pytest.raises(StoreError):
            store.delete(ref)

    def test_byte_accounting(self):
        store = arena()
        r1 = store.put(b"12345")
        store.put(b"123")
        assert store.bytes_stored == 8
        store.delete(r1)
        assert store.bytes_stored == 3
        assert len(store) == 1

    def test_blobs_are_host_names_under_the_prefix(self):
        host = HostStorage()
        store = BlobStore(host, "s/arena/")
        refs = [store.put(b"one"), store.put(b"two")]
        host.put("s/other", b"not the arena's")
        assert host.names("s/arena/") == sorted(store.name(ref) for ref in refs)
        assert [host.get(store.name(ref)) for ref in refs] == [b"one", b"two"]
        assert len(store) == 2
