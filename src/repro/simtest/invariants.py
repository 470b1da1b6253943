"""The eight invariants every simulated scenario must uphold.

These are the harness's oracle: whatever the fault schedule did — drops,
duplicates, reorderings, corruption, crashes, power failures,
partitions, topology changes — every run checks all eight, whichever
engine its seed picked.  Each check returns a list of
:class:`Violation`; an empty list means the invariant held.

1. **Durability** — no acknowledged PUT is lost: every tag the store
   accepted (minus those whose only ciphertext the adversary destroyed)
   is still held by at least one shard after healing.
2. **Correctness** — every value a deduplicated call returned equals the
   direct execution of the function (checked inline by the runner; a
   store hit that fails the paper's Fig. 3 verification is recomputed,
   so a wrong value can only come from a protocol bug).
3. **Confidentiality** — no plaintext input or result bytes ever appear
   in any message on the wire (the honest-but-curious adversary taps
   every delivery) nor in anything a machine's host storage holds.
4. **Conservation** — every call is exactly one of hit, miss, or
   degraded: ``hits + misses + degraded == calls``.
5. **Coalescing** — checked on every batch: every single-flight
   follower (a result whose ``source`` is ``"coalesced"``) observes its
   leader's exact result — within the same batch there is an earlier
   non-coalesced call with the same tag, and the follower's value
   equals that leader's value.  Only the pipelined engines coalesce.
6. **Recovery** — checked at every power-failure point (any shard, or a
   participant of an open migration): a shard recovered from its
   write-ahead log serves exactly the entries it served before the
   failure.  Every pre-crash tag is present with byte-identical
   ciphertext (tags whose blobs the adversary tampered in untrusted
   memory are only required to be *present* — recovery restores the
   original bytes from the durable blob area, deliberately diverging
   from the tampered arena), and no tag absent before the crash is
   resurrected by replay.
7. **Single owner** — once the scenario heals, finishes any open
   hand-off, and runs one anti-entropy pass, the ring is settled (no
   dual-ownership window survives) and every acknowledged PUT is held by
   exactly the owner set of its tag under the settled ring: no acked
   entry is stranded on a shard that no longer owns it, none is lost
   with its range, and no range is owned twice.
8. **Depth identity** — checked on every run whose seed picked the
   depth-16 engine: depth is a schedule knob, never a semantic one.
   The deep run's per-call result bytes are identical to the same
   scenario replayed with a depth-1 engine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with enough context to chase it."""

    invariant: str
    detail: str
    repro: str = ""

    def __str__(self) -> str:
        line = f"INVARIANT VIOLATED [{self.invariant}]: {self.detail}"
        if self.repro:
            line += f"  (replay: {self.repro})"
        return line


def check_durability(acked_tags, corrupted_tags, cluster, repro: str = "") -> list:
    """No acknowledged PUT lost: every acked tag still has a holder.

    Tags whose blobs the scenario deliberately corrupted are excluded —
    the store *must* evict a blob whose digest no longer matches (that
    is the tamper-detection working), and the adversary may have hit
    every replica.
    """
    violations = []
    for tag in sorted(acked_tags):
        if tag in corrupted_tags:
            continue
        if not cluster.holders_of(tag):
            violations.append(Violation(
                "durability",
                f"acknowledged tag {tag.hex()[:16]} held by no shard after heal",
                repro,
            ))
    return violations


def check_confidentiality(secrets, wire_payloads, repro: str = "", hosts=()) -> list:
    """No plaintext secret bytes on the wire or at rest on a host.

    ``secrets`` maps a label (e.g. ``"result[3]"``) to plaintext bytes;
    every tapped payload and every value each of ``hosts`` (machines'
    ``HostStorage``) holds is scanned for every secret.  Secrets here are
    32+ byte hash outputs, so substring matches cannot be coincidental.
    """
    places = [("a wire message", payload) for payload in wire_payloads] + [
        (f"host name {name!r}", host.get(name)) for host in hosts for name in host.names()
    ]
    violations = []
    for label in sorted(secrets):
        secret = secrets[label]
        for place, payload in places:
            if secret and secret in payload:
                violations.append(Violation(
                    "confidentiality",
                    f"plaintext of {label} observed in {place} "
                    f"({len(payload)} bytes)",
                    repro,
                ))
                break  # one sighting per secret is enough to report
    return violations


def check_coalesced(results, repro: str = "") -> list:
    """Every coalesced follower observes its leader's exact result.

    ``results`` is one batch's list of
    :class:`~repro.core.runtime.DedupResult`.  For each result whose
    ``source`` is ``"coalesced"`` there must exist an earlier result in
    the batch with the same tag that was *not* coalesced (the leader —
    the one that actually took the store round trip, verification, or
    compute), and the follower's value must equal the leader's value.
    """
    violations = []
    leaders: dict[bytes, object] = {}
    for index, result in enumerate(results):
        if result.source != "coalesced":
            leaders.setdefault(result.tag, result)
            continue
        leader = leaders.get(result.tag)
        if leader is None:
            violations.append(Violation(
                "coalescing",
                f"result[{index}] (tag {result.tag.hex()[:16]}) is coalesced "
                "but no earlier non-coalesced call in the batch shares its tag",
                repro,
            ))
        elif leader.value != result.value:
            violations.append(Violation(
                "coalescing",
                f"result[{index}] (tag {result.tag.hex()[:16]}) diverged from "
                f"its leader: {result.value!r} != {leader.value!r}",
                repro,
            ))
    return violations


def check_depth_identical(deep_values, reference_values, repro: str = "") -> list:
    """Depth never changes results (invariant 8 above).

    ``deep_values`` is the ordered per-call result-bytes list of the
    depth-16 run; ``reference_values`` the same scenario replayed with a
    depth-1 engine.  The window reshapes every round, but the value each
    call returns must be byte-identical.
    """
    if len(deep_values) != len(reference_values):
        return [Violation(
            "depth_identity",
            f"deep run produced {len(deep_values)} results, "
            f"depth-1 replay produced {len(reference_values)}",
            repro,
        )]
    violations = []
    for index, (got, want) in enumerate(zip(deep_values, reference_values)):
        if got != want:
            violations.append(Violation(
                "depth_identity",
                f"result[{index}] diverged between the deep run and "
                f"the depth-1 replay",
                repro,
            ))
            break  # one divergence pinpoints the bug; avoid spam
    return violations


def store_image(store) -> dict:
    """A shard's observable contents — tag -> exact ciphertext bytes —
    captured before and after a power failure for :func:`check_recovery`."""
    return {entry.tag: sealed for entry, sealed in store.stored()}


def check_recovery(
    pre_image, post_image, corrupted_tags, shard_id: str, repro: str = ""
) -> list:
    """WAL recovery is exact: nothing lost, nothing changed, nothing
    resurrected (invariant 6 above)."""
    violations = []
    for tag in sorted(pre_image):
        if tag not in post_image:
            violations.append(Violation(
                "recovery",
                f"shard {shard_id}: tag {tag.hex()[:16]} lost across "
                "power failure",
                repro,
            ))
        elif tag not in corrupted_tags and post_image[tag] != pre_image[tag]:
            violations.append(Violation(
                "recovery",
                f"shard {shard_id}: tag {tag.hex()[:16]} recovered with "
                "different ciphertext bytes",
                repro,
            ))
    for tag in sorted(post_image):
        if tag not in pre_image:
            violations.append(Violation(
                "recovery",
                f"shard {shard_id}: tag {tag.hex()[:16]} resurrected by "
                "recovery (absent before the power failure)",
                repro,
            ))
    return violations


def check_single_owner(
    acked_tags, corrupted_tags, cluster, repro: str = ""
) -> list:
    """Every acked PUT lives with exactly its owner set under the settled
    ring (invariant 7 above).  Run after healing, completing any open
    migration, and one anti-entropy pass — those steps are what the
    invariant holds the migration machinery to."""
    violations = []
    if cluster.ring.in_transition:
        return [Violation(
            "single_owner",
            "ring still mid-transition after heal and settle",
            repro,
        )]
    for tag in sorted(acked_tags):
        if tag in corrupted_tags:
            continue
        holders = cluster.holders_of(tag)
        owners = sorted(cluster.owners_of(tag))
        if holders != owners:
            violations.append(Violation(
                "single_owner",
                f"acked tag {tag.hex()[:16]} held by {holders} but owned "
                f"by {owners} under the settled ring",
                repro,
            ))
    return violations


def check_conservation(stats, repro: str = "") -> list:
    """hits + misses + degraded == calls, and none negative."""
    total = stats.hits + stats.misses + stats.degraded
    if total == stats.calls and min(
        stats.hits, stats.misses, stats.degraded, stats.calls
    ) >= 0:
        return []
    return [Violation(
        "conservation",
        f"hits({stats.hits}) + misses({stats.misses}) + "
        f"degraded({stats.degraded}) != calls({stats.calls})",
        repro,
    )]
