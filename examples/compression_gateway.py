#!/usr/bin/env python
"""A bandwidth-optimizing compression gateway (paper Case 2).

A network middlebox compresses documents before they leave the data
center.  Incrementally re-synchronised datasets mean the same documents
keep coming back; SPEED turns repeat compressions into store lookups.
This example also shows the *failure* path: after the host adversary
flips a byte in every stored ciphertext, the store detects it (blob
digest), the application falls back to fresh computation and still
returns the correct bytes — and the session trace shows the tampered
blob read followed by the recompute.

Run:  python examples/compression_gateway.py
"""

import repro
from repro import TrustedLibraryRegistry
from repro.apps.compress import inflate
from repro.apps.registry import compress_case_study
from repro.security import HostAdversary
from repro.workloads import text_corpus


def main() -> None:
    corpus = text_corpus(count=12, n_bytes=8 * 1024, duplicate_fraction=0.5, seed=9)

    case = compress_case_study()
    libs = TrustedLibraryRegistry()
    case.register_into(libs)
    session = repro.connect(
        app_name="gateway", libraries=libs, seed=b"compression-gateway"
    )
    dedup_deflate = case.deduplicable(session.app)

    saved_bytes = 0
    for document in corpus:
        compressed = dedup_deflate(document)
        assert inflate(compressed) == document
        saved_bytes += len(document) - len(compressed)
        session.flush_puts()

    stats = session.stats
    print(f"documents compressed : {stats.calls}")
    print(f"cache hits           : {stats.hits} ({stats.hit_rate():.0%})")
    print(f"bandwidth saved      : {saved_bytes / 1024:.1f} KiB")

    # --- adversarial episode: the host tampers with the stored results ----
    victim = corpus[0]
    store = session.store
    adversary = HostAdversary(store.platform.host)
    for name in store.platform.host.names(store.blobstore.prefix):
        adversary.flip(name)

    before_failures = stats.verification_failures
    recovered = dedup_deflate(victim)  # store copy is poisoned
    assert inflate(recovered) == victim
    detected = (stats.verification_failures - before_failures > 0
                or session.store.stats.tamper_detected > 0)
    print("tamper episode       : store copies corrupted by host adversary")
    print(f"  detected            : {detected}")
    print("  correct result      : recomputed transparently, output verified")
    print()
    print(session.trace_table(title="the tampered call: detect, recompute"))


if __name__ == "__main__":
    main()
