"""Controlled deduplication: measurement-based admission (§III-D)."""

import pytest

from repro.deployment import Deployment
from repro.sgx.measurement import measure_code
from repro.store.authorization import AuthorizationError, AuthorizationPolicy
from repro.store.resultstore import StoreConfig
from tests.conftest import DOUBLE_DESC, double_bytes, make_libs


def deployment_with_policy(policy, seed=b"authz"):
    return Deployment(seed=seed, store_config=StoreConfig(authorization=policy))


class TestPolicyObject:
    def test_open_admission(self):
        policy = AuthorizationPolicy(open_admission=True)
        assert policy.admits(measure_code(b"anything"))

    def test_default_denies(self):
        policy = AuthorizationPolicy()
        assert not policy.admits(measure_code(b"anything"))

    def test_allow_exact_enclave(self):
        meas = measure_code(b"app-code")
        policy = AuthorizationPolicy(allowed_mrenclaves={meas.mrenclave})
        assert policy.admits(meas)
        assert not policy.admits(measure_code(b"other-code"))

    def test_allow_signer(self):
        meas_a = measure_code(b"a", signer=b"vendor")
        meas_b = measure_code(b"b", signer=b"vendor")
        meas_x = measure_code(b"a", signer=b"other")
        policy = AuthorizationPolicy().allow_signer(meas_a.mrsigner)
        assert policy.admits(meas_a) and policy.admits(meas_b)
        assert not policy.admits(meas_x)

    def test_revocation(self):
        meas = measure_code(b"app")
        policy = AuthorizationPolicy(allowed_mrenclaves={meas.mrenclave})
        policy.allowed_mrenclaves.discard(meas.mrenclave)
        assert not policy.admits(meas)

    def test_check_counts_denials(self):
        policy = AuthorizationPolicy()
        with pytest.raises(AuthorizationError):
            policy.check(measure_code(b"x"))
        assert policy.denials == 1


class TestStoreIntegration:
    def test_unauthorized_application_cannot_connect(self):
        d = deployment_with_policy(AuthorizationPolicy())
        with pytest.raises(AuthorizationError):
            d.create_application("outsider", make_libs())

    def test_authorized_signer_connects_and_deduplicates(self):
        # All SPEED applications share the default dev signer.
        policy = AuthorizationPolicy().allow_signer(
            measure_code(b"whatever").mrsigner
        )
        d = deployment_with_policy(policy)
        app = d.create_application("member", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        assert dedup(b"x") == double_bytes(b"x")
        app.runtime.flush_puts()
        assert dedup(b"x") == double_bytes(b"x")
        assert app.runtime.stats.hits == 1

    def test_authorization_requires_sgx_mode(self):
        from repro.errors import StoreError

        with pytest.raises(StoreError):
            Deployment(
                seed=b"authz-nosgx",
                store_config=StoreConfig(
                    use_sgx=False,
                    authorization=AuthorizationPolicy(open_admission=True),
                ),
            ).create_application("app", make_libs())
