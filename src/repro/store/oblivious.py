"""Oblivious metadata access: Path ORAM for the dictionary (paper §III-D).

"Even though the reusable results are always encrypted outside enclaves,
it may still raise the concern of leaking memory access pattern. ...
this issue can be addressed by integrating existing oblivious memory
access solutions.  However, this inevitably incurs extra overhead, and
we will explore a good balance between security and performance in our
future work."

This module is that exploration: a textbook Path ORAM (Stefanov et al.,
CCS 2013) over fixed-size blocks, used to hide *which* dictionary entry
a GET/PUT touches from an adversary who observes the enclave's memory
access pattern.  Parameters: bucket size Z=4, binary tree sized to the
declared capacity, position map and stash held in (simulated) enclave
registers, every access reading and re-writing one full root-to-leaf
path with re-randomised placement.

The ablation ``python -m repro.bench a6`` quantifies the overhead the
paper anticipated.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.drbg import HmacDrbg
from ..errors import StoreError
from ..sgx.cost_model import SimClock

BUCKET_SIZE = 4  # Z


@dataclass
class _Block:
    """One ORAM block: application key + opaque value."""

    key: bytes
    value: object
    leaf: int


class PathOram:
    """Key-value Path ORAM with deterministic (seeded) leaf remapping.

    Values are arbitrary Python objects; the *size* accounted per block
    is ``block_bytes`` (what an implementation would encrypt per slot).
    Every operation — hit or miss, read or write — touches exactly one
    root-to-leaf path, so the access pattern is independent of the key.
    """

    def __init__(
        self,
        capacity: int,
        block_bytes: int = 128,
        seed: bytes = b"path-oram",
        clock: SimClock | None = None,
    ):
        if capacity < 1:
            raise StoreError("ORAM capacity must be positive")
        self.capacity = capacity
        self.block_bytes = block_bytes
        self._clock = clock
        self._drbg = HmacDrbg(seed, b"oram")
        # Tree with at least `capacity` leaves.
        self._levels = max(1, (capacity - 1).bit_length()) + 1
        self._n_leaves = 1 << (self._levels - 1)
        n_nodes = (1 << self._levels) - 1
        self._tree: list[list[_Block]] = [[] for _ in range(n_nodes)]
        self._position: dict[bytes, int] = {}
        self._stash: dict[bytes, _Block] = {}
        self.accesses = 0
        self.max_stash_seen = 0

    # -- tree geometry -----------------------------------------------------
    def _path_nodes(self, leaf: int) -> list[int]:
        """Node indices from root to the given leaf (heap layout)."""
        node = leaf + self._n_leaves - 1
        path = []
        while True:
            path.append(node)
            if node == 0:
                break
            node = (node - 1) // 2
        path.reverse()
        return path

    def _random_leaf(self) -> int:
        return self._drbg.randint_below(self._n_leaves)

    # -- the single access procedure -----------------------------------------
    def _access(self, key: bytes, write_value: object | None, *, remove: bool = False):
        """Read/write/remove under one uniform path access."""
        self.accesses += 1
        leaf = self._position.get(key)
        if leaf is None:
            leaf = self._random_leaf()  # dummy path for unknown keys
        path = self._path_nodes(leaf)

        # 1. Read the whole path into the stash.
        for node in path:
            if self._clock is not None:
                # Each bucket is decrypted on read (Z blocks).
                self._clock.charge_aead_decrypt(BUCKET_SIZE * self.block_bytes)
            for block in self._tree[node]:
                self._stash[block.key] = block
            self._tree[node] = []

        # 2. Operate on the target block.
        result = None
        block = self._stash.get(key)
        if block is not None:
            result = block.value
        if remove:
            self._stash.pop(key, None)
            self._position.pop(key, None)
        elif write_value is not None:
            new_leaf = self._random_leaf()
            self._stash[key] = _Block(key=key, value=write_value, leaf=new_leaf)
            self._position[key] = new_leaf
        elif block is not None:
            # Plain read still remaps (the core obliviousness mechanism).
            new_leaf = self._random_leaf()
            block.leaf = new_leaf
            self._position[key] = new_leaf

        # 3. Write the path back, placing stash blocks as deep as their
        #    assigned leaf allows.
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            placed: list[_Block] = []
            for candidate_key in list(self._stash):
                if len(placed) >= BUCKET_SIZE:
                    break
                candidate = self._stash[candidate_key]
                cand_path = self._path_nodes(candidate.leaf)
                if depth < len(cand_path) and cand_path[depth] == node:
                    placed.append(candidate)
                    del self._stash[candidate_key]
            self._tree[node] = placed
            if self._clock is not None:
                self._clock.charge_aead_encrypt(BUCKET_SIZE * self.block_bytes)

        self.max_stash_seen = max(self.max_stash_seen, len(self._stash))
        return result

    # -- public API ------------------------------------------------------------
    def get(self, key: bytes):
        """Oblivious lookup; returns the value or None."""
        return self._access(key, None)

    def put(self, key: bytes, value: object) -> None:
        """Oblivious insert/update."""
        if key not in self._position and len(self._position) >= self.capacity:
            raise StoreError("ORAM at declared capacity")
        self._access(key, value)

    def remove(self, key: bytes):
        """Oblivious delete; returns the removed value or None."""
        return self._access(key, None, remove=True)

    def __len__(self) -> int:
        return len(self._position)

    def __contains__(self, key: bytes) -> bool:
        # NOTE: a real deployment would not expose a non-oblivious
        # membership probe; tests use it for verification only.
        return key in self._position

    def keys(self) -> list[bytes]:
        """Current key set (position-map metadata; leaks only membership,
        which the store's dedup responses reveal anyway)."""
        return list(self._position)


class ObliviousMetadataDict:
    """Drop-in for :class:`~repro.store.metadata.MetadataDict` that routes
    every per-request lookup through Path ORAM.

    Request-path operations (``get``/``put``/``remove``) cost exactly one
    ORAM path access each, hiding *which* entry a request touched.
    Maintenance operations (``entries`` and ``least_recent`` — used only
    when eviction triggers or during replication) perform a full
    oblivious scan, which is the honest price of combining ORAM with
    capacity management.
    """

    def __init__(
        self,
        capacity: int = 4096,
        clock: SimClock | None = None,
        seed: bytes = b"oblivious-metadata",
        block_bytes: int = 128,
    ):
        self._oram = PathOram(
            capacity=capacity, block_bytes=block_bytes, seed=seed, clock=clock
        )
        self._seq = 0

    def __len__(self) -> int:
        return len(self._oram)

    def __contains__(self, tag: bytes) -> bool:
        return tag in self._oram

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    def get(self, tag: bytes, touch=None):
        entry = self._oram.get(tag)
        if entry is None:
            return None
        entry.hits += 1
        entry.last_access_seq = self._tick()
        return entry

    def put(self, entry, touch=None) -> None:
        if entry.tag in self._oram:
            raise StoreError("duplicate tag insert; use replace semantics explicitly")
        entry.insert_seq = entry.last_access_seq = self._tick()
        self._oram.put(entry.tag, entry)

    def remove(self, tag: bytes):
        entry = self._oram.remove(tag)
        if entry is None:
            raise StoreError("cannot remove unknown tag")
        return entry

    def peek(self, tag: bytes):
        """Non-mutating lookup (introspection/tests; still one path)."""
        return self._oram.get(tag)

    def entries(self) -> list:
        """Full oblivious scan (maintenance only)."""
        return [self._oram.get(tag) for tag in self._oram.keys()]

    def least_recent(self):
        """The LRU victim, by a full scan: the entry with the smallest
        ``last_access_seq`` (the dictionary keeps no recency order)."""
        entries = self.entries()
        if not entries:
            raise StoreError("eviction requested from an empty store")
        return min(entries, key=lambda e: e.last_access_seq)

    @property
    def oram(self) -> PathOram:
        """Instrumentation hook for tests and the A6 ablation."""
        return self._oram
