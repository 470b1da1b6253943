"""Property-based invariants of the ResultStore under random workloads.

Whatever sequence of PUTs/GETs arrives (including duplicates and
capacity pressure), on the plain or the oblivious metadata dictionary,
these must always hold:

* entry count never exceeds the configured capacity;
* the blob arena holds exactly one blob per dictionary entry;
* tracked byte totals equal the arena's accounting;
* every GET for a stored tag returns the exact original ciphertext.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashes import sha256
from repro.net.messages import GetRequest, PutRequest
from repro.net.transport import Network
from repro.sgx.platform import SgxPlatform
from repro.store.resultstore import ResultStore, StoreConfig


def build_store(capacity_entries, oblivious_metadata=False):
    platform = SgxPlatform(seed=b"inv")
    network = Network()
    store = ResultStore(
        platform, network,
        config=StoreConfig(
            capacity_entries=capacity_entries, oblivious_metadata=oblivious_metadata,
        ),
        seed=b"inv",
    )
    enclave = platform.create_enclave("client", b"client-code")
    client = store.connect("client-addr", app_enclave=enclave)
    return store, client


operation = st.tuples(
    st.sampled_from(["put", "get"]),
    st.integers(min_value=0, max_value=11),   # tag universe of 12
)


class TestStoreInvariants:
    @given(
        ops=st.lists(operation, max_size=40),
        capacity=st.integers(min_value=1, max_value=6),
        oblivious=st.booleans(),   # both dictionaries' least_recent()
    )
    @settings(max_examples=25, deadline=None)
    def test_random_workload_invariants(self, ops, capacity, oblivious):
        store, client = build_store(capacity, oblivious)
        reference: dict[bytes, bytes] = {}   # what SHOULD be retrievable if present
        for op, tag_index in ops:
            tag = sha256(b"inv" + bytes([tag_index]))
            body = b"blob-%d" % tag_index
            if op == "put":
                response = client.call(PutRequest(
                    tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16,
                    sealed_result=body, app_id="app",
                ))
                assert response.accepted
                reference[tag] = body
            else:
                response = client.call(GetRequest(tag=tag, app_id="app"))
                if response.found:
                    assert response.sealed_result == reference[tag]

            # Global invariants after every operation.
            assert len(store) <= capacity
            assert len(store.blobstore) == len(store)
            assert store.blobstore.bytes_stored == sum(e.size for e in store._dict.entries())

    @given(ops=st.lists(operation, max_size=30))
    @settings(max_examples=15, deadline=None)
    def test_unbounded_store_never_evicts(self, ops):
        store, client = build_store(None)
        puts = set()
        for op, tag_index in ops:
            tag = sha256(b"unb" + bytes([tag_index]))
            if op == "put":
                client.call(PutRequest(tag=tag, challenge=b"r" * 32,
                                       wrapped_key=b"k" * 16,
                                       sealed_result=b"x", app_id="app"))
                puts.add(tag)
            else:
                response = client.call(GetRequest(tag=tag, app_id="app"))
                assert response.found == (tag in puts)
        assert store.stats.evictions == 0
        assert len(store) == len(puts)
