#!/usr/bin/env python
"""Operating SPEED with policies: authorization, quotas, adaptivity.

A shared-machine deployment where the operator enables the three policy
layers this reproduction implements on top of the paper's base design:

1. **Controlled deduplication** (§III-D discussion) — only enclaves from
   the trusted vendor may connect; a rogue enclave is refused at
   attestation time.
2. **DoS quotas** (§III-D) — each tenant gets a bounded slice of the
   store, so a flood from one cannot evict the others' results.
3. **Adaptive strategy** (§VII future work) — tenants running workloads
   where deduplication does not pay automatically stop querying.

Run:  python examples/multi_tenant_policy.py
"""

import repro
from repro import (
    FunctionDescription,
    RuntimeConfig,
    StoreConfig,
    TrustedLibrary,
    TrustedLibraryRegistry,
)
from repro.apps.compress import deflate
from repro.apps.registry import DEFLATE_SECONDS_PER_BYTE
from repro.core.adaptive import AdaptiveDedupPolicy
from repro.sgx.measurement import measure_code
from repro.store import QuotaPolicy
from repro.store.authorization import AuthorizationError, AuthorizationPolicy
from repro.workloads import synthetic_text


def make_libs():
    libs = TrustedLibraryRegistry()
    libs.register(TrustedLibrary("zlib", "1.2.11").add(
        "bytes deflate(bytes)", deflate, lambda data: DEFLATE_SECONDS_PER_BYTE * len(data),
    ))
    return libs


DESC = FunctionDescription("zlib", "1.2.11", "bytes deflate(bytes)")


def main() -> None:
    vendor_signer = measure_code(b"any", signer=b"speed-dev").mrsigner

    # Tenant A: repetitive workload — deduplication pays, stays on.
    tenant_a = repro.connect(
        app_name="tenant-a", seed=b"multi-tenant",
        libraries=make_libs(),
        store_config=StoreConfig(
            authorization=AuthorizationPolicy().allow_signer(vendor_signer),
            quota=QuotaPolicy(max_entries_per_app=8),
            capacity_entries=16,
        ),
        runtime_config=RuntimeConfig(
            app_id="tenant-a",
            adaptive=AdaptiveDedupPolicy(min_observations=4),
        ),
    )
    dedup_a = tenant_a.deduplicable(DESC)
    docs = [synthetic_text(8 * 1024, seed=i % 2) for i in range(10)]
    for doc in docs:
        dedup_a(doc)
        tenant_a.flush_puts()

    # Tenant B: all-unique short inputs — adaptivity suppresses lookups.
    tenant_b = tenant_a.sibling(
        "tenant-b", libraries=make_libs(),
        runtime_config=RuntimeConfig(
            app_id="tenant-b",
            adaptive=AdaptiveDedupPolicy(min_observations=4, probe_interval=50),
        ),
    )
    dedup_b = tenant_b.deduplicable(DESC)
    for i in range(20):
        dedup_b(synthetic_text(256, seed=100 + i))
        tenant_b.flush_puts()

    # A rogue enclave from an unknown vendor is turned away.
    try:
        tenant_a.store.connect(
            "rogue-addr",
            app_enclave=tenant_a.platform.create_enclave(
                "rogue", b"rogue-code", signer=b"unknown-vendor"
            ),
        )
        refused = False
    except AuthorizationError:
        refused = True

    stats_a, stats_b = tenant_a.stats, tenant_b.stats
    print(f"tenant-a (repetitive): {stats_a.calls} calls, {stats_a.hits} hits "
          f"({stats_a.hit_rate():.0%})")
    fid = tenant_b.runtime.libraries.function_identity(DESC)
    profile = tenant_b.runtime.config.adaptive.profile(fid)
    print(f"tenant-b (unique)    : {stats_b.calls} calls, {stats_b.hits} hits, "
          f"dedup {'suppressed' if not profile.dedup_enabled else 'active'} "
          f"after learning")
    print(f"store                : {len(tenant_a.store)} entries, "
          f"{tenant_a.store.stats.gets} GETs served")
    print(f"rogue enclave        : {'refused at attestation' if refused else 'ADMITTED (bug!)'}")


if __name__ == "__main__":
    main()
