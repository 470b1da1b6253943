"""Simulation reproducibility: same seed => bit-identical runs.

Every randomised component draws from seeded DRBGs, and the virtual
clock charges deterministic costs (compute included: each function's
declared ``native_cost``), so two runs of the same scenario must agree
in every observable — a property the experiment harness depends on.
"""

from repro.core.tag import derive_tag
from repro.crypto.hashes import sha256
from repro.deployment import Deployment
from repro.net.messages import GetRequest, PutRequest
from repro.security import HostAdversary
from tests.conftest import DOUBLE_DESC, make_libs


def run_store_scenario(seed: bytes):
    """A compute-free scenario: raw PUT/GET traffic against the store."""
    d = Deployment(seed=seed)
    enclave = d.platform.create_enclave("client", b"client-code")
    client = d.store.connect("client-addr", app_enclave=enclave)
    transcript = []
    for i in range(10):
        tag = sha256(b"det" + bytes([i % 4]))
        if i % 3 == 0:
            response = client.call(PutRequest(
                tag=tag, challenge=bytes(32), wrapped_key=bytes(16),
                sealed_result=b"blob-%d" % (i % 4), app_id="app",
            ))
            transcript.append(("put", response.accepted, response.reason))
        else:
            response = client.call(GetRequest(tag=tag, app_id="app"))
            transcript.append(("get", response.found, response.sealed_result))
    return d, transcript


class TestDeterminism:
    def test_store_transcripts_identical(self):
        _, t1 = run_store_scenario(b"det-seed")
        _, t2 = run_store_scenario(b"det-seed")
        assert t1 == t2

    def test_sim_clock_identical_for_compute_free_runs(self):
        d1, _ = run_store_scenario(b"det-seed")
        d2, _ = run_store_scenario(b"det-seed")
        assert d1.clock.cycles == d2.clock.cycles
        assert d1.clock.breakdown() == d2.clock.breakdown()

    def test_different_seeds_different_ciphertexts(self):
        def stored_blob(seed):
            d = Deployment(seed=seed)
            app = d.create_application("app", make_libs())
            dedup = app.deduplicable(DOUBLE_DESC)
            dedup(b"data")
            app.runtime.flush_puts()
            func_identity = app.runtime.libraries.function_identity(DOUBLE_DESC)
            from repro.core.serialization import AnyParser, default_registry

            tag = derive_tag(func_identity, AnyParser(default_registry()).encode(b"data"))
            return d.store.blobstore.get(d.store.metadata_entry(tag).blob_ref)

        assert stored_blob(b"seed-one") != stored_blob(b"seed-two")

    def test_same_seed_same_ciphertexts(self):
        def stored_bytes(seed):
            d = Deployment(seed=seed)
            app = d.create_application("app", make_libs())
            dedup = app.deduplicable(DOUBLE_DESC)
            dedup(b"data")
            app.runtime.flush_puts()
            return HostAdversary(d.platform.host).save()

        assert stored_bytes(b"same") == stored_bytes(b"same")

    def test_tags_platform_independent(self):
        # Tags must be identical across machines (the master-store
        # no-redundancy argument, §IV-B remark).
        from repro.core.serialization import AnyParser, default_registry

        def tag_on(seed, machine):
            d = Deployment(seed=seed, machine=machine)
            app = d.create_application("app", make_libs())
            fid = app.runtime.libraries.function_identity(DOUBLE_DESC)
            return derive_tag(fid, AnyParser(default_registry()).encode(b"m"))

        assert tag_on(b"s1", "machine-a") == tag_on(b"s2", "machine-b")
