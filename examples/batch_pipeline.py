#!/usr/bin/env python
"""Batched execution: amortize enclave transitions across a request batch.

A thumbnail service receives bursts of requests.  Handling them one
call at a time pays the full fixed cost per request — an ECALL into the
application enclave, a GET round-trip to the ResultStore (two more
transitions plus a channel record), and the PUT on a miss.
``wrapper.map`` processes the whole burst under ONE enclave entry, ships
all duplicate checks as ONE batched message, and queues all PUTs
together; the in-enclave L1 cache additionally serves repeats without
any network traffic at all.  ``map_results`` exposes the per-item
:class:`~repro.core.runtime.DedupResult`, so the example can say exactly where each
item came from.

Run:  python examples/batch_pipeline.py
"""

import repro
from repro import RuntimeConfig


def checksum_image(data: bytes) -> bytes:
    """Stand-in for a thumbnailing routine: deterministic and CPU-bound."""
    digest = 0
    for _ in range(40):
        for b in data:
            digest = (digest * 131 + b) % (1 << 64)
    return digest.to_bytes(8, "big") + data[:16]


def main() -> None:
    # A burst of 12 requests over 6 distinct images (repeats are common:
    # popular images get requested again and again).
    images = [bytes([i]) * 512 for i in range(6)]
    burst = [images[i % 6] for i in range(12)]

    # --- one call at a time ---------------------------------------------
    s_seq = repro.connect(
        app_name="one-at-a-time", seed=b"batch-example",
        runtime_config=RuntimeConfig(app_id="one-at-a-time"),
    )
    checksum_seq = s_seq.mark(version="3.0")(checksum_image)
    sim0 = s_seq.clock.snapshot()
    results_seq = []
    for image in burst:
        results_seq.append(checksum_seq(image))
        s_seq.flush_puts()
    seq_sim = s_seq.clock.since(sim0) / s_seq.clock.params.cpu_freq_hz
    seq_transitions = s_seq.enclave.transition_count

    # --- the same burst, batched (with a small L1 cache) ----------------
    s_bat = repro.connect(
        app_name="batched", seed=b"batch-example",
        runtime_config=RuntimeConfig(app_id="batched", l1_cache_entries=32),
    )
    checksum_bat = s_bat.mark(version="3.0")(checksum_image)
    sim0 = s_bat.clock.snapshot()
    per_item = checksum_bat.map_results(burst)
    s_bat.flush_puts()
    bat_sim = s_bat.clock.since(sim0) / s_bat.clock.params.cpu_freq_hz
    bat_transitions = s_bat.enclave.transition_count

    results_bat = [r.value for r in per_item]
    assert results_bat == results_seq  # bit-identical per-item results

    stats = s_bat.stats
    sources = {src: sum(1 for r in per_item if r.source == src)
               for src in ("l1", "store", "computed")}
    print(f"burst size               : {len(burst)} requests, {len(images)} distinct")
    print(f"sequential               : {seq_transitions} app-enclave transitions, "
          f"{seq_sim * 1e3:.3f} ms simulated")
    print(f"batched                  : {bat_transitions} app-enclave transitions, "
          f"{bat_sim * 1e3:.3f} ms simulated")
    print(f"transition reduction     : {seq_transitions / bat_transitions:.1f}x")
    print(f"per-item sources         : {sources['computed']} computed, "
          f"{sources['l1']} L1 hits, {sources['store']} store hits")
    print(f"batched hit breakdown    : {stats.l1_hits} L1 hits, "
          f"{stats.misses} computed, {stats.puts_sent} PUTs flushed")
    print(f"PUT accounting           : {stats.puts_accepted} accepted, "
          f"{stats.puts_rejected} rejected, {stats.puts_failed} failed, "
          f"{s_bat.runtime.puts_unacknowledged} unacknowledged")


if __name__ == "__main__":
    main()
