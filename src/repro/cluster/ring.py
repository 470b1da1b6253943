"""Consistent hashing over the dedup tag space.

Tags ``t = Hash(func, m)`` (§IV-A) are outputs of a cryptographic hash,
so they land uniformly on the ring by construction — the ring position
of a tag is simply its first eight bytes read as an integer.  Shards are
placed at pseudo-random points via *virtual nodes*: each shard owns many
points, which smooths the per-shard load imbalance from O(1) placement
variance down to O(1/sqrt(vnodes)) and lets a joining shard take small
slices from every incumbent instead of one large slice from a single
neighbour (the PM-Dedup-style partitioning of secure-dedup state).

The ring is pure bookkeeping — no I/O, no enclave state — so both the
client-side router and the server-side cluster share one implementation
and always agree on ownership.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

from ..crypto.hashes import sha256
from ..errors import MigrationInProgressError, MigrationStateError, SpeedError

RING_BITS = 64
RING_SIZE = 1 << RING_BITS
#: Virtual nodes per shard of weight 1 in every deployment's ring.
VNODES = 32
#: Copies of every entry a deployment keeps unless told otherwise.
REPLICATION_FACTOR = 2


@dataclass(frozen=True)
class TopologyPlan:
    """A batch of membership and weight changes applied as **one**
    pending ring and one dual-ownership window.

    Historically every join or drain paid its own full migration window,
    so scaling 4→8 shards cost four windows.  A plan folds any number of
    joins, leaves, and reweights into a single pending ring; the range
    diff (:meth:`ShardRing.begin_plan`) then prices the whole transition
    as one set of moved ranges, handed off once.

    Joins may name their shard (``join("s4")``) or leave it ``None`` for
    the cluster to assign; weights express relative capacity (a shard of
    weight 2.0 receives twice the vnode points, hence twice the tag
    share — §IV-A tags are uniform, so ownership share is exactly vnode
    share).  Builder methods return new plans, so plans compose::

        plan = TopologyPlan().join("s4", weight=2.0).join("s5")
        plan = plan.leave("s0").reweight("s1", 0.5)
    """

    joins: tuple[tuple[str | None, float], ...] = ()
    leaves: tuple[str, ...] = ()
    reweights: tuple[tuple[str, float], ...] = ()

    def join(self, shard_id: str | None = None, weight: float = 1.0) -> "TopologyPlan":
        return replace(self, joins=self.joins + ((shard_id, weight),))

    def leave(self, shard_id: str) -> "TopologyPlan":
        return replace(self, leaves=self.leaves + (shard_id,))

    def reweight(self, shard_id: str, weight: float) -> "TopologyPlan":
        return replace(self, reweights=self.reweights + ((shard_id, weight),))

    @property
    def empty(self) -> bool:
        return not (self.joins or self.leaves or self.reweights)

    def label(self) -> str:
        """Compact human/WAL-readable summary, e.g. ``+s4+s5-s0~s1``."""
        parts = [f"+{sid if sid is not None else '?'}" for sid, _ in self.joins]
        parts += [f"-{sid}" for sid in self.leaves]
        parts += [f"~{sid}" for sid, _ in self.reweights]
        return "".join(parts) or "noop"

    def validate(self) -> None:
        """Internal consistency only (membership is the ring's check)."""
        if self.empty:
            raise SpeedError("topology plan is empty")
        named: list[str] = [sid for sid, _ in self.joins if sid is not None]
        named += list(self.leaves)
        named += [sid for sid, _ in self.reweights]
        if len(named) != len(set(named)):
            raise SpeedError(
                "a shard may appear in at most one change of a topology plan"
            )
        for sid, weight in (*self.joins, *self.reweights):
            if not weight > 0:
                raise SpeedError(
                    f"shard {sid!r} weight must be > 0, got {weight!r}"
                )


@dataclass(frozen=True)
class MigrationRange:
    """One contiguous slice of the ring whose owner set changes in an
    in-flight topology transition.

    The interval is ``(lo, hi]`` in ring-point space; ``lo > hi`` means
    the range wraps through zero.  ``sources`` are the owners under the
    current ring, ``dests`` the owners under the pending ring.
    """

    index: int
    lo: int
    hi: int
    sources: tuple[str, ...]
    dests: tuple[str, ...]

    def contains(self, point: int) -> bool:
        if self.lo < self.hi:
            return self.lo < point <= self.hi
        return point > self.lo or point <= self.hi

    @property
    def width(self) -> int:
        return (self.hi - self.lo) % RING_SIZE


def tag_point(tag: bytes) -> int:
    """Ring position of a tag: its leading 8 bytes (tags are uniform)."""
    if len(tag) < 8:
        raise SpeedError("tag too short to place on the ring")
    return int.from_bytes(tag[:8], "big")


def _vnode_point(shard_id: str, index: int) -> int:
    digest = sha256(b"speed/ring/" + shard_id.encode() + b"/" + index.to_bytes(4, "big"))
    return int.from_bytes(digest[:8], "big")


class ShardRing:
    """Consistent-hash ring mapping tag points to shard ids."""

    def __init__(self, vnodes: int):
        if vnodes < 1:
            raise SpeedError("a shard needs at least one virtual node")
        self.vnodes = vnodes
        self._points: list[int] = []  # sorted vnode positions
        self._owners: list[str] = []  # shard id at the same index
        self._shards: set[str] = set()
        self._weights: dict[str, float] = {}
        # Dual-ownership transition overlay (None when the ring is settled).
        self._next: ShardRing | None = None
        self._ranges: tuple[MigrationRange, ...] = ()
        self._committed: set[int] = set()

    # -- membership -----------------------------------------------------------
    @property
    def shards(self) -> tuple[str, ...]:
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add_shard(self, shard_id: str, weight: float = 1.0) -> None:
        if self._next is not None:
            raise MigrationStateError(
                "ring is mid-transition; finish or abort the open migration first"
            )
        if shard_id in self._shards:
            raise SpeedError(f"shard {shard_id!r} already on the ring")
        if not weight > 0:
            raise SpeedError(f"shard {shard_id!r} weight must be > 0")
        for i in range(self.vnode_count(weight)):
            point = _vnode_point(shard_id, i)
            idx = bisect.bisect_left(self._points, point)
            # sha256 collisions across distinct (shard, index) pairs are
            # cryptographically impossible; an equal point would mean a
            # duplicate registration.
            self._points.insert(idx, point)
            self._owners.insert(idx, shard_id)
        self._shards.add(shard_id)
        self._weights[shard_id] = weight

    def remove_shard(self, shard_id: str) -> None:
        if self._next is not None:
            raise MigrationStateError(
                "ring is mid-transition; finish or abort the open migration first"
            )
        if shard_id not in self._shards:
            raise SpeedError(f"shard {shard_id!r} not on the ring")
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != shard_id]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]
        self._shards.remove(shard_id)
        self._weights.pop(shard_id, None)

    def vnode_count(self, weight: float) -> int:
        """Vnode points a shard of ``weight`` places: ``round(vnodes *
        weight)``, floored at one so every member owns something."""
        return max(1, round(self.vnodes * weight))

    def weight_of(self, shard_id: str) -> float:
        if shard_id not in self._shards:
            raise SpeedError(f"shard {shard_id!r} not on the ring")
        return self._weights.get(shard_id, 1.0)

    # -- ownership ------------------------------------------------------------
    def owners(self, tag: bytes, n: int = 1) -> list[str]:
        """The ``n`` distinct shards responsible for ``tag``: the primary
        (first vnode at or after the tag's point, wrapping) followed by
        the next ``n - 1`` distinct successors clockwise.

        ``n`` is clamped to the shard count, so asking for replication
        factor 3 on a 2-shard ring degrades gracefully to both shards.
        """
        return self._owners_at(tag_point(tag), n)

    def _owners_at(self, point: int, n: int) -> list[str]:
        if not self._shards:
            raise SpeedError("ring has no shards")
        n = min(n, len(self._shards))
        owners = self._owners
        at = bisect.bisect_left(self._points, point)
        out = [owners[at % len(owners)]]
        while len(out) < n:  # each shard has a vnode, so the walk ends
            at += 1
            owner = owners[at % len(owners)]
            if owner not in out:
                out.append(owner)
        return out

    # -- dual-ownership transitions -------------------------------------------
    #
    # A topology change opens a *transition*: the pending ring is computed
    # up front, the slices whose owner set differs become MigrationRange
    # entries, and until a range is committed its tags are readable from
    # the old owners (with failover to the new ones) while writes already
    # land on the pending owners.  finish() swaps the pending ring in once
    # every range has been committed.
    @property
    def in_transition(self) -> bool:
        return self._next is not None

    def begin_plan(
        self, plan: TopologyPlan, replication: int = 1
    ) -> tuple[MigrationRange, ...]:
        """Open one transition applying every change in ``plan`` at once.

        N joins, leaves, and reweights fold into a single pending ring,
        so the whole reshape pays **one** dual-ownership window and one
        range diff — a 4→8 scale-out hands its ranges off in one
        migration pass instead of four serialized windows.  Returns the
        moved ranges (sources/dests may span several changed shards)."""
        self._require_idle()
        plan.validate()
        for sid, _weight in plan.joins:
            if sid is None:
                raise SpeedError(
                    "ring-level plans need concrete join shard ids "
                    "(StoreCluster.begin_plan assigns them)"
                )
            if sid in self._shards:
                raise SpeedError(f"shard {sid!r} already on the ring")
        for sid in plan.leaves:
            if sid not in self._shards:
                raise SpeedError(f"shard {sid!r} not on the ring")
        for sid, _weight in plan.reweights:
            if sid not in self._shards:
                raise SpeedError(f"shard {sid!r} not on the ring")
        if plan.joins and not self._shards:
            raise MigrationStateError("cannot stream-join an empty ring")
        if len(self._shards) - len(plan.leaves) < 1:
            raise MigrationStateError("cannot remove the last shard")
        nxt = self._clone()
        for sid in plan.leaves:
            nxt.remove_shard(sid)
        for sid, weight in plan.reweights:
            nxt.remove_shard(sid)
            nxt.add_shard(sid, weight=weight)
        for sid, weight in plan.joins:
            nxt.add_shard(sid, weight=weight)
        return self._begin(nxt, replication)

    def commit_range(self, index: int) -> None:
        """Mark one migrated range as handed off to its new owners."""
        if self._next is None:
            raise MigrationStateError("no transition is open")
        if index < 0 or index >= len(self._ranges):
            raise MigrationStateError(f"unknown migration range {index}")
        self._committed.add(index)

    def finish(self) -> None:
        """Adopt the pending ring; every range must be committed first."""
        if self._next is None:
            raise MigrationStateError("no transition is open")
        pending = [r.index for r in self._ranges if r.index not in self._committed]
        if pending:
            raise MigrationStateError(
                f"{len(pending)} migration range(s) still uncommitted"
            )
        nxt = self._next
        self._points = nxt._points
        self._owners = nxt._owners
        self._shards = nxt._shards
        self._weights = nxt._weights
        self._next = None
        self._ranges = ()
        self._committed = set()

    def abort_transition(self) -> None:
        """Drop the pending ring and keep the current ownership map.

        Raises :class:`MigrationStateError` when no transition is open —
        the same contract as :meth:`commit_range`/:meth:`finish`, so a
        double abort (or an abort racing a completed finish) surfaces
        instead of silently succeeding."""
        if self._next is None:
            raise MigrationStateError("no transition is open")
        self._next = None
        self._ranges = ()
        self._committed = set()

    def pending_ranges(self) -> tuple[MigrationRange, ...]:
        return tuple(r for r in self._ranges if r.index not in self._committed)

    def transition_range(self, tag: bytes) -> MigrationRange | None:
        """The in-flight range covering ``tag`` (None when settled or the
        tag's owner set does not change in this transition)."""
        if self._next is None:
            return None
        point = tag_point(tag)
        for rng in self._ranges:
            if rng.contains(point):
                return rng
        return None

    def read_owners(self, tag: bytes, n: int = 1) -> list[str]:
        """Owners to consult for a GET: old owners first (they still hold
        the data until the range commits), then the pending owners as
        failover targets.  Committed ranges read from the new owners only."""
        if self._next is None:
            return self._owners_at(tag_point(tag), n)
        rng = self.transition_range(tag)
        if rng is None:
            return self.owners(tag, n)
        point = tag_point(tag)
        if rng.index in self._committed:
            return self._next._owners_at(point, n)
        old = self._owners_at(point, n)
        new = self._next._owners_at(point, n)
        return old + [s for s in new if s not in old]

    def write_owners(self, tag: bytes, n: int = 1) -> list[str]:
        """Owners a PUT must land on: always the pending topology, so no
        update written during the window is lost when the range commits."""
        if self._next is None:
            return self._owners_at(tag_point(tag), n)
        rng = self.transition_range(tag)
        if rng is None:
            return self.owners(tag, n)
        return self._next._owners_at(tag_point(tag), n)

    def _require_idle(self) -> None:
        if self._next is not None:
            raise MigrationInProgressError(
                "a topology transition is already in progress"
            )

    def _clone(self) -> ShardRing:
        clone = ShardRing(self.vnodes)
        clone._points = list(self._points)
        clone._owners = list(self._owners)
        clone._shards = set(self._shards)
        clone._weights = dict(self._weights)
        return clone

    def _begin(self, nxt: ShardRing, replication: int) -> tuple[MigrationRange, ...]:
        # Ownership is constant between consecutive boundary points of the
        # merged (old ∪ new) vnode sets, so probing each elementary
        # interval's inclusive end classifies the whole ring exactly.
        boundaries = sorted(set(self._points) | set(nxt._points))
        raw: list[list] = []
        for i, hi in enumerate(boundaries):
            lo = boundaries[i - 1] if i else boundaries[-1]
            old = tuple(self._owners_at(hi, replication))
            new = tuple(nxt._owners_at(hi, replication))
            if set(old) != set(new):
                if raw and raw[-1][1] == lo and raw[-1][2] == old and raw[-1][3] == new:
                    raw[-1][1] = hi  # merge contiguous slices with one movement
                else:
                    raw.append([lo, hi, old, new])
        if (
            len(raw) >= 2
            and raw[0][0] == raw[-1][1]  # first slice wraps; last ends there
            and raw[0][2] == raw[-1][2]
            and raw[0][3] == raw[-1][3]
        ):
            # The movement is contiguous *through zero*: the slice ending
            # at the last boundary and the one starting there (the wrap
            # interval) are one hand-off, not two — merging keeps the
            # migration to one transfer and one WAL commit mark.
            raw[-1][1] = raw[0][1]
            raw.pop(0)
        self._ranges = tuple(
            MigrationRange(i, lo, hi, old, new)
            for i, (lo, hi, old, new) in enumerate(raw)
        )
        self._next = nxt
        self._committed = set()
        return self._ranges

    # -- rebalancing support ---------------------------------------------------
    def owned_width(self, shard_id: str) -> int:
        """Ring-point width owned (primary) by ``shard_id``, as an exact
        integer: the widths of all shards sum to ``RING_SIZE`` with no
        float rounding.  The slice at index 0 reaches back through zero
        to the last vnode point (``prev`` goes negative), which is what
        charges the wrap interval to the first point's owner."""
        if shard_id not in self._shards:
            raise SpeedError(f"shard {shard_id!r} not on the ring")
        if len(self._shards) == 1:
            return RING_SIZE
        total = 0
        for idx, owner in enumerate(self._owners):
            if owner != shard_id:
                continue
            here = self._points[idx]
            prev = self._points[idx - 1] if idx else self._points[-1] - RING_SIZE
            total += here - prev
        return total

    def load_share(self, shard_id: str) -> float:
        """Fraction of the ring owned (primary) by ``shard_id``."""
        return self.owned_width(shard_id) / RING_SIZE
