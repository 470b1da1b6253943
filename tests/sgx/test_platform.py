"""Platform-level behaviour: identity, registry, configuration."""

from repro.sgx.attestation import AttestationService
from repro.sgx.cost_model import CostParams
from repro.sgx.platform import SgxPlatform


class TestPlatform:
    def test_platform_id_depends_on_name_and_seed(self):
        a = SgxPlatform(seed=b"s", name="m1")
        b = SgxPlatform(seed=b"s", name="m2")
        c = SgxPlatform(seed=b"t", name="m1")
        assert a.platform_id != b.platform_id
        assert a.platform_id != c.platform_id

    def test_same_seed_same_platform(self):
        a = SgxPlatform(seed=b"s", name="m")
        b = SgxPlatform(seed=b"s", name="m")
        assert a.platform_id == b.platform_id
        assert a.seal_fabric_key == b.seal_fabric_key

    def test_enclave_registry(self):
        platform = SgxPlatform(seed=b"reg")
        e1 = platform.create_enclave("a", b"code-a")
        e2 = platform.create_enclave("b", b"code-b")
        assert set(platform.enclaves) == {e1, e2}
        platform.destroy_enclave(e1)
        assert set(platform.enclaves) == {e2}

    def test_enclave_ids_unique_even_after_destroy(self):
        platform = SgxPlatform(seed=b"ids")
        e1 = platform.create_enclave("a", b"code")
        platform.destroy_enclave(e1)
        e2 = platform.create_enclave("b", b"code")
        assert e2.enclave_id != e1.enclave_id

    def test_custom_cost_params_respected(self):
        params = CostParams(cpu_freq_hz=1e9, ecall_cycles=5)
        platform = SgxPlatform(seed=b"cp", params=params)
        enclave = platform.create_enclave("a", b"code")
        before = platform.clock.cycles
        with enclave.ecall():
            pass
        assert platform.clock.cycles - before == 10  # 5 in + 5 out

    def test_enclave_build_charges_measurement_cost(self):
        platform = SgxPlatform(seed=b"build")
        before = platform.clock.cycles
        platform.create_enclave("a", b"c" * 10000)
        assert platform.clock.cycles > before

    def test_drbg_streams_differ_per_enclave(self):
        platform = SgxPlatform(seed=b"drbg")
        e1 = platform.create_enclave("a", b"code")
        e2 = platform.create_enclave("b", b"code")
        with e1.ecall():
            r1 = e1.read_rand(16)
        with e2.ecall():
            r2 = e2.read_rand(16)
        assert r1 != r2

    def test_shared_attestation_service_across_platforms(self):
        service = AttestationService()
        p1 = SgxPlatform(seed=b"p1", name="m1", attestation_service=service)
        p2 = SgxPlatform(seed=b"p2", name="m2", attestation_service=service)
        e1 = p1.create_enclave("a", b"code")
        with e1.ecall():
            quote = e1.create_quote()
        # Verifiable from anywhere in the deployment.
        assert service.verify_quote(quote) == e1.measurement
        assert p2.platform_id != p1.platform_id
