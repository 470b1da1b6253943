"""The host adversary: every action on host-held bytes goes through names."""

import pytest

from repro.deployment import Deployment
from repro.durable import take_checkpoint
from repro.security import HostAdversary
from repro.sgx.platform import HostStorage
from repro.store.persistence import snapshot_store
from repro.store.resultstore import StoreConfig
from tests.conftest import DOUBLE_DESC, make_libs


def held(**named) -> HostAdversary:
    host = HostStorage()
    for name, data in named.items():
        host.put(name, data)
    return HostAdversary(host)


class TestActions:
    def test_flip_flips_one_byte(self):
        adversary = held(blob=b"\x00\x00\x00")
        adversary.flip("blob", offset=1)
        assert adversary.host.get("blob") == b"\x00\xff\x00"
        adversary.flip("blob", offset=-1, xor=1)
        assert adversary.host.get("blob") == b"\x00\xff\x01"

    def test_flip_out_of_range(self):
        adversary = held(blob=b"ab")
        with pytest.raises(ValueError):
            adversary.flip("blob", offset=5)
        with pytest.raises(KeyError):
            adversary.flip("absent")

    def test_exchange(self):
        adversary = held(one=b"one", two=b"two")
        adversary.exchange("one", "two")
        assert adversary.host.get("one") == b"two"
        assert adversary.host.get("two") == b"one"

    def test_truncate_delete(self):
        adversary = held(**{"a/1": b"abc", "a/2": b"xyz", "b": b"keep"})
        adversary.truncate("a/2", 1)
        assert adversary.host.get("a/2") == b"x"
        adversary.delete("a/1")
        assert adversary.host.names() == ["a/2", "b"]
        with pytest.raises(KeyError):
            adversary.delete("a/1")

    def test_put_back_a_stale_copy(self):
        adversary = held(**{"s/old": b"1", "s/kept": b"1"})
        stale = adversary.save("s/")
        adversary.host.put("s/kept", b"2")
        adversary.host.put("s/new", b"2")
        adversary.put_back(stale)                  # stale bytes, new name stays
        assert adversary.save("s/") == {"s/kept": b"1", "s/new": b"2", "s/old": b"1"}
        adversary.put_back(stale, prefix="s/")     # the whole prefix rolls back
        assert adversary.save("s/") == stale


def test_every_byte_a_durable_store_leaves_outside_is_a_host_name():
    """Arena, WAL segments, blob copies, checkpoint and snapshot: all of it
    is reachable through ``platform.host.names()`` and nowhere else."""
    d = Deployment(seed=b"host-names", store_config=StoreConfig(durable=True))
    app = d.create_application("app", make_libs())
    dedup = app.deduplicable(DOUBLE_DESC)
    dedup(b"before the checkpoint")
    app.runtime.flush_puts()
    take_checkpoint(d.store)
    dedup(b"after the checkpoint")
    app.runtime.flush_puts()
    snapshot_store(d.store)
    store, log, names = d.store, d.store.durable, d.platform.host.names()
    assert all(name.startswith(f"{store.address}/") for name in names)
    kinds = sorted({name[len(store.address) + 1:].split("/")[0] for name in names})
    assert kinds == ["arena", "blobs", "checkpoint", "snapshot", "wal"]
    assert len(store.blobstore) == 2 and len(log.segment_names()) == 1

    store.power_fail()
    assert d.platform.host.names(store.blobstore.prefix) == []   # host RAM is gone
    store.recover()
    assert len(store.blobstore) == 2
