"""The encrypted ResultStore service (paper §IV-B).

The main body runs outside the enclave: it owns the network endpoint and
the untrusted blob arena (``<address>/arena/`` names in the machine's
host storage).  Each request is delegated to the store enclave (one
ECALL per request), where the channel record is opened, the request
parsed, and the enclave-protected metadata dictionary accessed; the reply
is protected before control returns to the host.  A ``use_sgx=False``
variant runs the identical logic without an enclave — the "w/o SGX"
series of the paper's Fig. 6.

An entry has one lifecycle whichever way it arrives: a ``PUT_REQUEST``
(lone or batched), a hand-off ingest (:mod:`.sync`), WAL replay and image
restore (:mod:`repro.durable`) each settle what is theirs — validation,
first-write-wins, admission, charges, commit — then call the one
:meth:`ResultStore._insert`; every departure is ``_evict_entry``.  Other
modules use the public surface only (``ecall``, ``unlogged``, ``stored``,
``collect_entries``, ``ingest_entry``, ``restore_entry``, ``replay_*``).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

from .authorization import AuthorizationPolicy
from .blobstore import BlobStore
from .metadata import MetadataDict, MetadataEntry, blob_digest
from .oblivious import ObliviousMetadataDict
from .quota import QuotaManager, QuotaPolicy
from ..crypto.hashes import DIGEST_SIZE
from ..durable.checkpoint import maybe_checkpoint
from ..durable.wal import (
    REC_MIGRATE_BEGIN,
    REC_MIGRATE_COMMIT,
    REC_MIGRATE_END,
    DurableLog,
    WalRecord,
)
from ..errors import ProtocolError, QuotaExceededError, StoreError
from ..obs.metrics import namespaced
from ..obs.tracer import NULL_TRACER
from ..net.channel import (
    ChannelEndpoint,
    NullChannelEndpoint,
    establish,
    establish_remote,
)
from ..net.messages import (
    BatchGetRequest,
    BatchGetResponse,
    BatchPutRequest,
    BatchPutResponse,
    ErrorMessage,
    GetRequest,
    GetResponse,
    Message,
    PutRequest,
    PutResponse,
    decode_message,
    encode_message,
)
from ..net.rpc import RpcClient
from ..net.transport import Network
from ..sgx.enclave import Enclave
from ..sgx.platform import SgxPlatform

STORE_CODE_IDENTITY = b"speed/resultstore/enclave-v1"
STORE_SIGNER = b"speed-store"
WRAPPED_KEY_SIZE = 16
CHALLENGE_SIZE = 32
#: Contributor id of an entry that arrived by hand-off: the shipped tuple
#: carries no app id, so it is unmetered on every path (see :mod:`.quota`)
#: and the id is reserved — a wire PUT may not claim it.
HANDOFF_APP_ID = "sync"

# Replies that carry nothing of their own (messages are immutable).
_MISS = GetResponse(found=False)
_STORED = PutResponse(accepted=True)
_ALREADY_STORED = PutResponse(accepted=True, reason="already stored")
# A reusable no-op context: no ECALL, or no span around an untraced step.
_NO_CONTEXT = nullcontext()


@dataclass(frozen=True)
class StoreConfig:
    """Deployment knobs for one ResultStore instance."""

    # Entry bound (None: unbounded); a full store evicts the least recently used.
    capacity_entries: int | None = None
    quota: QuotaPolicy | None = None
    use_sgx: bool = True
    verify_blob_digest: bool = True
    # Controlled deduplication (§III-D discussion): when set, only
    # applications whose attested measurement the policy admits may
    # connect.  None = open admission, the paper's base design.
    authorization: "AuthorizationPolicy | None" = None
    # Ablation A3 (DESIGN.md): keep result ciphertexts in enclave memory
    # instead of outside.  The paper rejects this design because the EPC
    # is tiny; setting True shows why (page-fault storms under load).
    blobs_in_epc: bool = False
    # Paper SS III-D discussion / future work: hide the metadata access
    # pattern behind Path ORAM (ablation A6 measures the overhead).
    oblivious_metadata: bool = False
    oblivious_capacity: int = 4096
    # repro.durable: log-structured persistence.  When True every
    # accepted PUT/evict/discard is appended to a sealed, MAC-chained
    # write-ahead log committed before each reply leaves the machine, so
    # the store survives power_fail() via recover().
    durable: bool = False
    wal_group_commit: int = 8
    checkpoint_interval: int = 256
    # GET-recency WAL marks: when > 0, every Nth hit on an entry logs a
    # coalesced REC_TOUCH record so restored LRU eviction order also
    # reflects reads served after the last checkpoint.  0 disables the
    # marks (recency then restores only up to the checkpoint).
    recency_log_interval: int = 0
    # Whole-state rollback handling: detection always counts into
    # ``durable.rollback_detected``; with strict_rollback=True recovery
    # refuses the stale state with a hard RollbackError instead.
    strict_rollback: bool = False


@dataclass
class StoreStats:
    """Operational counters surfaced to experiments."""

    gets: int = 0
    hits: int = 0
    puts: int = 0
    puts_duplicate: int = 0
    puts_rejected: int = 0
    evictions: int = 0
    tamper_detected: int = 0
    restores: int = 0
    restored_entries: int = 0
    recoveries: int = 0
    power_fails: int = 0

    def hit_rate(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    #: Counters with inconsistent attribute spelling and their
    #: normalized ``store.<metric>`` names.
    _RENAMES = {
        "puts_duplicate": "puts_duplicated",
        "tamper_detected": "tampers_detected",
        "restores": "restore.restores",
        "restored_entries": "restore.entries_restored",
        "recoveries": "restore.recoveries",
        "power_fails": "restore.power_fails",
    }

    def snapshot(self) -> dict:
        """Flat, JSON-ready counter export (mirrors RuntimeStats.snapshot)
        under canonical ``store.<metric>`` keys."""
        return namespaced(
            "store", {**asdict(self), "hit_rate": self.hit_rate()},
            renames=self._RENAMES,
        )


def null_channel_pair() -> tuple[NullChannelEndpoint, NullChannelEndpoint]:
    """Unprotected endpoints for the paper's "without SGX" comparison."""
    return NullChannelEndpoint(), NullChannelEndpoint()


class ResultStore:
    """One deployed ResultStore reachable at a network address."""

    def __init__(
        self,
        platform: SgxPlatform,
        network: Network,
        address: str = "resultstore",
        config: StoreConfig | None = None,
        seed: bytes = b"resultstore-seed",
        tracer=NULL_TRACER,
    ):
        self.platform = platform
        self.network = network
        self.address = address
        self.config = config or StoreConfig()
        # Observability: store-side spans are recorded on this machine's
        # clock; the enclave inherits the tracer so its ECALL/OCALL
        # transitions appear in the same trace.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.endpoint = network.endpoint(address, platform.clock)
        self.enclave: Enclave | None = None
        if self.config.use_sgx:
            self.enclave = platform.create_enclave(
                f"resultstore@{address}", STORE_CODE_IDENTITY, signer=STORE_SIGNER
            )
            self.enclave.tracer = self.tracer
        # Enclave heap accesses, charged through the EPC model (without
        # SGX there is no enclave memory to touch).
        self._touch = self.enclave.touch if self.enclave else lambda *access: None
        self._seed = seed
        self._reset_volatile_state()
        self.durable: DurableLog | None = None
        if self.config.durable:
            if self.enclave is None:
                raise StoreError("durable persistence requires an SGX-mode store")
            if self.config.oblivious_metadata:
                raise StoreError(
                    "durable persistence does not support oblivious metadata yet"
                )
            self.durable = DurableLog(
                self.enclave, address, self.config.wal_group_commit,
                self.config.checkpoint_interval, tracer=self.tracer,
            )
        # The log while mutations are to be logged: None on a volatile
        # store and inside unlogged().
        self._wal = self.durable
        self._channels: dict[str, ChannelEndpoint] = {}
        self.stats = StoreStats()
        network.set_reactor(address, self)

    def _reset_volatile_state(self) -> None:
        """Everything a power failure destroys, as a fresh store has it."""
        cfg, clock = self.config, self.platform.clock
        self._dict: MetadataDict | ObliviousMetadataDict = (
            ObliviousMetadataDict(
                capacity=cfg.oblivious_capacity, clock=clock, seed=self._seed + b"/oram"
            )
            if cfg.oblivious_metadata else MetadataDict()
        )
        self.blobstore = BlobStore(self.platform.host, f"{self.address}/arena/")
        self._quota = QuotaManager(cfg.quota, clock) if cfg.quota else None
        # Migration hand-off marks: id -> {"peer", "role", "committed"
        # (set of (lo, hi) ring ranges), "ended"}; WAL replay rebuilds them.
        self._migrations: dict[str, dict] = {}
        # blobs_in_epc bookkeeping: blob_ref -> (enclave heap offset, size).
        self._epc_blob_extents: dict[int, tuple[int, int]] = {}
        self._epc_blob_cursor = 0

    # -- connection management --------------------------------------------
    def connect(
        self,
        client_address: str,
        app_enclave: Enclave | None = None,
        attestation_service=None,
    ) -> RpcClient:
        """Establish a secure channel for one application and return the
        RPC client its DedupRuntime will use.

        With SGX the channel rides on local attestation between the app
        enclave and the store enclave when both share a platform; an
        application on a *different* machine (the sharded-cluster
        topology) passes the shared ``attestation_service`` and the
        handshake upgrades to remote attestation.  Without SGX (Fig. 6
        comparison) a pre-provisioned session channel is used.

        The client endpoint is registered on the *application's* clock:
        its channel crypto and wire time belong to the app machine.
        """
        client_clock = (
            app_enclave.platform.clock if app_enclave is not None else self.platform.clock
        )
        endpoint = self.network.endpoint(client_address, client_clock)
        if self.config.use_sgx:
            if app_enclave is None:
                raise StoreError("SGX-mode connections require the application enclave")
            if app_enclave.platform is not self.platform:
                if attestation_service is None:
                    raise StoreError(
                        "cross-machine connections require a shared attestation service"
                    )
                established = establish_remote(
                    attestation_service, app_enclave, self.enclave
                )
            else:
                established = establish(app_enclave, self.enclave)
            if self.config.authorization is not None:
                # Controlled deduplication: admit by attested identity.
                self.config.authorization.check(established.client_measurement)
            client_chan, server_chan = established.client, established.server
        else:
            if self.config.authorization is not None:
                raise StoreError(
                    "authorization requires attested (SGX-mode) connections"
                )
            # Fig. 6 "w/o SGX": the paper runs the same operations fully
            # outside enclaves, so no protected channel exists.
            client_chan, server_chan = null_channel_pair()
        # Channel crypto spans: the server side is charged to this
        # machine's clock, the client side to the application's.
        server_chan.tracer = self.tracer
        server_chan.trace_clock = self.platform.clock
        client_chan.tracer = self.tracer
        client_chan.trace_clock = client_clock
        self._channels[client_address] = server_chan
        return RpcClient(
            endpoint, client_chan, self.address,
            tracer=self.tracer, clock=client_clock,
        )

    # -- reactor -------------------------------------------------------------
    def pump(self) -> None:
        """Serve all pending requests (invoked by the network on delivery)."""
        while self.endpoint.pending():
            source, record = self.endpoint.recv()
            channel = self._channels.get(source)
            if channel is None:
                raise StoreError(f"request from unconnected client {source!r}")
            with self.ecall("serve_request", in_bytes=len(record)):
                reply = self._process(channel, record)
                if self.durable is not None:
                    # Group commit: everything this request logged becomes
                    # durable before the reply — the ack — leaves the machine.
                    self.durable.commit()
                    maybe_checkpoint(self)
            self.endpoint.send(source, reply)

    def _process(self, channel: ChannelEndpoint, record: bytes) -> bytes:
        request_id = 0
        try:
            request = decode_message(channel.unprotect(record))
        except Exception as exc:
            response: Message = ErrorMessage(code=400, detail=str(exc))
        else:
            request_id = request.request_id
            try:
                response = self._dispatch(request)
            except Exception as exc:
                response = ErrorMessage(code=500, detail=str(exc))
        return channel.protect(encode_message(response, request_id))

    def _dispatch(self, request: Message) -> Message:
        if isinstance(request, GetRequest):
            return self._handle_get(request)
        if isinstance(request, PutRequest):
            return self._handle_put(request)
        if isinstance(request, BatchGetRequest):
            return self._handle_batch_get(request)
        if isinstance(request, BatchPutRequest):
            return self._handle_batch_put(request)
        raise ProtocolError(f"unexpected message type {type(request).__name__}")

    # -- enclave boundary and log helpers -------------------------------------
    def ecall(self, name: str, in_bytes: int = 0):
        """Context for work that belongs inside the store enclave: one
        ECALL, or nothing when the caller is already inside (or the store
        runs without SGX)."""
        if self.enclave is None or self.enclave.inside:
            return _NO_CONTEXT
        return self.enclave.ecall(name, in_bytes=in_bytes)

    @contextmanager
    def unlogged(self):
        """Mutations in this context are not logged: WAL replay must not
        re-log itself, and :meth:`clear` models memory loss, not N
        deliberate deletions."""
        wal, self._wal = self._wal, None
        try:
            yield
        finally:
            self._wal = wal

    # -- GET -----------------------------------------------------------------
    def _handle_get(self, request: GetRequest) -> GetResponse:
        clock, span, config = self.platform.clock, self.tracer.span, self.config
        with span("store.get", clock=clock) as get_span:
            self.stats.gets += 1
            if len(request.tag) != DIGEST_SIZE:
                raise ProtocolError(f"tag must be {DIGEST_SIZE} bytes")
            with span("store.lookup", clock=clock):
                entry = self._dict.get(request.tag, touch=self._touch)
            if entry is None:
                get_span.set("found", False)
                return _MISS
            with span("store.blob_read", clock=clock) as read_span:
                sealed = self.blobstore.get(entry.blob_ref)
                read_span.set("bytes", len(sealed))
                if config.blobs_in_epc:
                    self._touch("store/blobs", *self._epc_blob_extents[entry.blob_ref])
                else:
                    # Copying the ciphertext across the enclave boundary.
                    clock.charge_marshal(len(sealed))
                if config.verify_blob_digest:
                    clock.charge_hash(len(sealed))
                    if blob_digest(sealed) != entry.blob_digest:
                        # Untrusted memory was modified: drop the poisoned
                        # entry and let the application recompute
                        # (fail-safe, §III-D).
                        self.stats.tamper_detected += 1
                        self._evict_entry(entry)
                        read_span.mark("tampered")
                        get_span.set("found", False)
                        return _MISS
            self.stats.hits += 1
            if (
                self._wal is not None
                and config.recency_log_interval > 0
                and entry.hits % config.recency_log_interval == 0
            ):
                # Coalesced recency mark: one record per N hits keeps the
                # log cheap while restored eviction order tracks reads.
                self._wal.append_touch(entry.tag, entry.hits)
            get_span.set("found", True)
            return GetResponse(
                found=True,
                challenge=entry.challenge,
                wrapped_key=entry.wrapped_key,
                sealed_result=sealed,
            )

    # -- PUT -----------------------------------------------------------------
    def _handle_put(self, request: PutRequest) -> PutResponse:
        """One PUT's verdict, lone or batched: a refused or malformed PUT
        (over quota, reserved app id, bad field shape) is ``accepted=False``
        with the error's machine-readable code first, human detail after,
        so it never poisons a batch-mate and never reads as a failed
        shard."""
        clock = self.platform.clock
        try:
            with self.tracer.span("store.put", clock=clock) as put_span:
                self.stats.puts += 1
                tag = request.tag
                if len(tag) != DIGEST_SIZE:
                    raise ProtocolError(f"tag must be {DIGEST_SIZE} bytes")
                # Empty challenge/wrapped key = the single-key scheme of §III-B;
                # the cross-application scheme always sends both.
                if len(request.challenge) not in (0, CHALLENGE_SIZE):
                    raise ProtocolError(f"challenge must be empty or {CHALLENGE_SIZE} bytes")
                if len(request.wrapped_key) not in (0, WRAPPED_KEY_SIZE):
                    raise ProtocolError(f"wrapped key must be empty or {WRAPPED_KEY_SIZE} bytes")
                if request.app_id == HANDOFF_APP_ID:
                    raise ProtocolError(
                        f"app id {HANDOFF_APP_ID!r} is reserved for hand-off entries"
                    )
                with self.tracer.span("store.lookup", clock=clock):
                    duplicate = tag in self._dict
                if duplicate:
                    # Deterministic tags mean one ciphertext version suffices
                    # (§IV-B remark); the first stored version wins.
                    self.stats.puts_duplicate += 1
                    put_span.set("outcome", "duplicate")
                    return _ALREADY_STORED
                sealed_result = request.sealed_result
                if self._quota is not None:
                    self._quota.admit_put(request.app_id, len(sealed_result))
                self._insert(
                    sealed_result, wire=True, tag=tag, challenge=request.challenge,
                    wrapped_key=request.wrapped_key, app_id=request.app_id,
                )
                put_span.set("outcome", "stored")
                return _STORED
        except (QuotaExceededError, ProtocolError) as exc:
            return PutResponse(accepted=False, reason=f"{exc.code}: {exc}")

    # -- the one way into the dictionary -----------------------------------------
    def _insert(self, sealed_result: bytes, wire: bool = False, **fields) -> None:
        """Make ``(tag, r, [k], [res])`` a dictionary entry — what every
        route does once its caller has settled first-write-wins (the tag
        must be absent) and admission: make room (LRU eviction), write the
        blob (and its extent when the arena is enclave heap), enter the
        metadata, log the PUT when logging is live.  ``fields`` are
        :class:`MetadataEntry`'s own: ``tag``, ``challenge``,
        ``wrapped_key``, ``app_id`` and, when the caller has them,
        ``hits`` and the sequence numbers (then kept).  A PUT off the
        ``wire`` adds the ``store.blob_write`` span around its blob write,
        the blob-digest hash and — unless the arena is enclave heap — the
        copy out of the enclave."""
        size = len(sealed_result)
        self._make_room()
        clock = self.platform.clock
        with self.tracer.span("store.blob_write", clock=clock, bytes=size) if wire else _NO_CONTEXT:
            if wire:
                clock.charge_hash(size)
            ref = self.blobstore.put(sealed_result)
            if self.config.blobs_in_epc:
                self._epc_blob_extents[ref] = (self._epc_blob_cursor, size)
                self._touch("store/blobs", self._epc_blob_cursor, size)
                self._epc_blob_cursor += size
            elif wire:
                clock.charge_marshal(size)
        entry = MetadataEntry(
            blob_ref=ref, blob_digest=blob_digest(sealed_result), size=size, **fields
        )
        self._dict.put(entry, touch=self._touch)
        if self._wal is not None:
            self._wal.append_put(entry, sealed_result)

    # -- batch handlers -------------------------------------------------------
    # The whole batch is served inside the single ECALL that pump() opened
    # for its channel record: one transition charge and one record's worth
    # of channel crypto amortized over N dictionary probes.
    def _handle_batch_get(self, request: BatchGetRequest) -> BatchGetResponse:
        return BatchGetResponse(items=tuple(map(self._handle_get, request.items)))

    def _handle_batch_put(self, request: BatchPutRequest) -> BatchPutResponse:
        return BatchPutResponse(items=tuple(map(self._handle_put, request.items)))

    def can_accept(self) -> bool:
        """Whether one more entry fits without evicting.  Migration uses
        this to refuse a batch instead of silently evicting foreground
        entries on a full target shard."""
        capacity = self.config.capacity_entries
        return capacity is None or len(self._dict) < capacity

    def _make_room(self) -> None:
        """Evict least recently used entries until one more fits."""
        capacity, entries = self.config.capacity_entries, self._dict
        while capacity is not None:
            held = len(entries)
            if held < capacity:
                return
            if not held:
                raise StoreError("capacity too small for a single entry")
            victim = entries.least_recent()
            with self.tracer.span("store.evict", clock=self.platform.clock):
                self._evict_entry(victim)
            self.stats.evictions += 1

    def _evict_entry(self, entry: MetadataEntry, discard: bool = False) -> None:
        self._dict.remove(entry.tag)
        self.blobstore.delete(entry.blob_ref)
        self._epc_blob_extents.pop(entry.blob_ref, None)
        if self._quota is not None and entry.app_id != HANDOFF_APP_ID:
            self._quota.release(entry.app_id, entry.size)
        if self._wal is not None:
            self._wal.append_remove(entry.tag, discard=discard)

    # -- hand-off (master-store sync of the §IV-B remark, resharding) ----------
    def ingest_entry(
        self, tag: bytes, challenge: bytes, wrapped_key: bytes, sealed_result: bytes
    ) -> bool:
        """Insert one shipped entry (already authenticated by the
        store-to-store channel); returns False on duplicate — the first
        stored version wins."""
        with self.ecall("ingest_entry", in_bytes=len(sealed_result)):
            if tag in self._dict:
                return False
            self._insert(
                sealed_result, tag=tag, challenge=challenge,
                wrapped_key=wrapped_key, app_id=HANDOFF_APP_ID,
            )
            if self._wal is not None:
                # Hand-off log: shipped entries arrive outside the request
                # loop, so they commit here rather than in pump().
                self._wal.commit()
            return True

    def stored(self, predicate=None) -> list[tuple[MetadataEntry, bytes]]:
        """``(entry, ciphertext)`` for every entry, or every entry
        satisfying ``predicate`` (call inside the enclave)."""
        get = self.blobstore.get
        return [
            (entry, get(entry.blob_ref)) for entry in self._dict.entries()
            if predicate is None or predicate(entry)
        ]

    def collect_entries(self, predicate) -> list[tuple[bytes, bytes, bytes, bytes]]:
        """Export the ``(tag, r, [k], [res])`` tuples of the entries that
        satisfy ``predicate`` — the collection half of every hand-off
        (master sync, tag-range migration, anti-entropy).

        Runs as one ECALL; each exported ciphertext is charged as a copy
        across the enclave boundary.  Only another attested ResultStore
        enclave ever receives the result (:mod:`repro.store.sync`); no
        wire message reaches this method.
        """
        with self.ecall("migrate_collect"):
            out = []
            for entry, sealed in self.stored(predicate):
                self.platform.clock.charge_marshal(len(sealed))
                out.append((entry.tag, entry.challenge, entry.wrapped_key, sealed))
            return out

    def tags_matching(self, predicate) -> list[bytes]:
        """Tags whose value satisfies ``predicate`` — the cheap scan used
        to find entries a ring change re-homed (no ciphertexts leave)."""
        with self.ecall("migrate_scan"):
            return [e.tag for e in self._dict.entries() if predicate(e.tag)]

    def discard_tags(self, tags) -> int:
        """Drop entries this store no longer owns after a ring change;
        returns the number removed.  Quota held by the owning app is
        released, mirroring eviction."""
        removed = 0
        with self.ecall("migrate_discard"):
            for tag in tags:
                entry = self._dict.peek(tag)
                if entry is None:
                    continue
                self._evict_entry(entry, discard=True)
                removed += 1
            if self._wal is not None:
                self._wal.commit()  # hand-off log for the migration source
        return removed

    # -- migration hand-off marks ----------------------------------------------
    @property
    def migration_open(self) -> bool:
        """True while this shard participates in an unfinished hand-off."""
        return any(not m["ended"] for m in self._migrations.values())

    def note_migrate(
        self,
        kind: int,
        migration_id: str,
        range_lo: int = 0,
        range_hi: int = 0,
        peer: str = "",
        role: int = 0,
    ) -> None:
        """Record one migration hand-off mark: BEGIN/END bracket this
        shard's participation, RANGE_COMMIT pins one handed-off range.
        Durable stores seal the mark into the WAL before returning, so
        the hand-off protocol survives a power failure on either side."""
        record = WalRecord(
            kind, b"", migration_id=migration_id,
            range_lo=range_lo, range_hi=range_hi, peer=peer, role=role,
        )
        with self.ecall("migrate_mark"):
            self.replay_migrate(record)
            if self._wal is not None:
                self._wal.append_migrate(record)
                self._wal.commit()

    def replay_migrate(self, record: WalRecord) -> None:
        """Apply one migration mark to the volatile view (live append and
        WAL replay share this)."""
        mark = self._migrations.setdefault(record.migration_id, {
            "peer": record.peer,
            "role": record.role,
            "committed": set(),
            "ended": False,
        })
        if record.peer:
            mark["peer"] = record.peer
        if record.kind == REC_MIGRATE_COMMIT:
            mark["committed"].add((record.range_lo, record.range_hi))
        elif record.kind == REC_MIGRATE_END:
            mark["ended"] = True

    def relog_open_migrations(self) -> None:
        """Re-seal the marks of still-open migrations into the fresh log
        (recovery folds the old log into a checkpoint, which would
        otherwise drop them)."""
        for migration_id, mark in self._migrations.items():
            if mark["ended"]:
                continue
            marks = [(REC_MIGRATE_BEGIN, 0, 0)] + [
                (REC_MIGRATE_COMMIT, lo, hi) for lo, hi in sorted(mark["committed"])
            ]
            for kind, lo, hi in marks:
                self.durable.append_migrate(WalRecord(
                    kind, b"", migration_id=migration_id, range_lo=lo, range_hi=hi,
                    peer=mark["peer"], role=mark["role"],
                ))
        self.durable.commit()

    def clear(self) -> int:
        """Drop every entry and blob (a crashed store process loses its
        in-memory state); quota held by contributing apps is released.
        Returns the number of entries dropped."""
        with self.ecall("clear"), self.unlogged():
            entries = self._dict.entries()
            for entry in entries:
                self._evict_entry(entry)
        return len(entries)

    # -- power failure and recovery (repro.durable) ---------------------------
    def power_fail(self) -> int:
        """Simulate a power failure: every volatile structure — the
        enclave's metadata dictionary, the blob arena (host RAM), eviction
        and quota state, and the WAL's in-enclave buffer — is lost in
        place.  Only the durable artifacts (sealed segments, the sealed
        checkpoint, logged ciphertexts) survive for :meth:`recover`.
        Established channels are kept — the subsystem hardens *store
        state*, not the transport.  Returns the entry count wiped."""
        if self.durable is None:
            raise StoreError("power_fail requires a durable-mode store")
        wiped = len(self._dict)
        host = self.platform.host
        for name in host.names(self.blobstore.prefix):
            host.delete(name)
        self._reset_volatile_state()
        self.durable.power_fail()
        self.stats.power_fails += 1
        return wiped

    def recover(self):
        """Rebuild state from the durable log after :meth:`power_fail`;
        returns the :class:`~repro.durable.recovery.RecoveryReport`."""
        from ..durable.recovery import recover_store

        return recover_store(self)

    def restore_entry(self, sealed_result: bytes, **fields) -> bool:
        """Put back one entry this store (or its predecessor) held before
        a restart — from a snapshot, a checkpoint or the log; ``fields``
        as for :meth:`_insert`.  Its contributor's usage is re-credited
        without limit or rate check: the entry was admitted before the
        restart.  Returns False on duplicate."""
        if fields["tag"] in self._dict:
            return False
        self._insert(sealed_result, **fields)
        if self._quota is not None and fields["app_id"] != HANDOFF_APP_ID:
            self._quota.restore(fields["app_id"], len(sealed_result))
        return True

    def replay_insert(self, record: WalRecord, sealed_result: bytes) -> bool:
        """Re-insert one logged PUT (``sealed_result`` already checked
        against the record's digest); returns False on duplicate."""
        if record.tag in self._dict:
            return False
        self.platform.clock.charge_marshal(record.size)
        return self.restore_entry(
            sealed_result, tag=record.tag, challenge=record.challenge,
            wrapped_key=record.wrapped_key, app_id=record.app_id,
        )

    def replay_remove(self, record: WalRecord) -> bool:
        """Re-apply one logged eviction or discard; False if the tag is
        not held."""
        entry = self._dict.peek(record.tag)
        if entry is not None:
            self._evict_entry(entry)
        return entry is not None

    def replay_touch(self, record: WalRecord) -> bool:
        """Re-apply one logged GET-recency mark during WAL replay."""
        return self._dict.touch_restore(record.tag, record.hits, touch=self._touch)

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._dict)

    def contains(self, tag: bytes) -> bool:
        return tag in self._dict

    def stored_tags(self) -> list[bytes]:
        """Every tag currently held, sorted (tests/diagnostics only —
        no eviction state is touched)."""
        return sorted(entry.tag for entry in self._dict.entries())

    def metadata_entry(self, tag: bytes):
        """The live in-enclave entry for ``tag``, or None.  Adversarial
        tests mutate it to model a compromised metadata dictionary; the
        paper's Fig. 3 verification must reject anything they change."""
        return self._dict.peek(tag)

    def snapshot(self) -> dict:
        """Store counters plus, on durable stores, the ``durable.*``
        log/checkpoint/recovery counters — one flat dict."""
        snap = self.stats.snapshot()
        if self.durable is not None:
            snap.update(self.durable.snapshot())
        return snap
