#!/usr/bin/env python
"""Quickstart: make a function deduplicable in 2 lines of code.

Mirrors the paper's §IV-C developer story through the unified entry
point: ``repro.connect()`` wires a full simulated SGX machine — the
application enclave plus an encrypted ResultStore — and
``@session.mark`` makes any deterministic function deduplicable.  Every
call is traced end to end, so the session can print the connected span
tree of the request it just served.

Run:  python examples/quickstart.py
"""

import repro
from repro.core.serialization import IntParser, MappingParser


def main() -> None:
    session = repro.connect(app_name="quickstart-app", seed=b"quickstart")

    # --- the 2 lines the paper advertises --------------------------------
    # (``native_cost`` is optional: what one call would take natively,
    # here ~0.5 us per character; it is what a computed call charges the
    # simulated clock.)
    @session.mark(version="2.1", result_parser=MappingParser(IntParser()),
                  native_cost=lambda text: 5e-7 * len(text))
    def word_histogram(text: str) -> dict:
        """A deterministic, moderately expensive computation."""
        counts: dict = {}
        for word in text.lower().split():
            counts[word] = counts.get(word, 0) + 1
        # Simulate heavier work (e.g. stemming, n-grams).
        for _ in range(200):
            sorted(counts.items())
        return counts

    document = "the quick brown fox jumps over the lazy dog " * 50

    result_first = word_histogram(document)            # initial (miss)
    session.flush_puts()
    result_second = word_histogram.call_result(document)  # subsequent (hit)

    assert result_second.value == result_first
    stats = session.stats
    first, second = stats.records
    print(f"distinct words           : {len(result_first)}")
    print(f"initial computation      : {first.sim_seconds * 1e3:.3f} ms (simulated), miss")
    print(f"subsequent computation   : {second.sim_seconds * 1e3:.3f} ms (simulated), "
          f"{'hit' if result_second.hit else 'miss'} "
          f"(served from the {result_second.source})")
    print(f"hit rate                 : {stats.hit_rate():.0%}")
    print(f"store                    : {session.store.stats}")
    print()
    print(session.trace_table(title="the subsequent call, span by span"))


if __name__ == "__main__":
    main()
