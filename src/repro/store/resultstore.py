"""The encrypted ResultStore service (paper §IV-B).

The main body runs outside the enclave: it owns the network endpoint and
the untrusted blob arena.  Each request is delegated to the store enclave
(one ECALL per request), where the channel record is opened, the request
parsed, and the enclave-protected metadata dictionary accessed; the reply
is protected before control returns to the host.  A ``use_sgx=False``
variant runs the identical logic without an enclave — the "w/o SGX"
series of the paper's Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .authorization import AuthorizationPolicy
from .blobstore import BlobStore
from .eviction import EvictionPolicy, make_policy
from .metadata import MetadataDict, MetadataEntry, blob_digest
from .oblivious import ObliviousMetadataDict
from .quota import QuotaManager, QuotaPolicy
from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import DIGEST_SIZE
from ..durable.wal import DurableLog, WalConfig
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
    with_request_id,
)
from ..net.rpc import RpcClient
from ..net.transport import Network
from ..sgx.enclave import Enclave
from ..sgx.platform import SgxPlatform

STORE_CODE_IDENTITY = b"speed/resultstore/enclave-v1"
STORE_SIGNER = b"speed-store"
WRAPPED_KEY_SIZE = 16
CHALLENGE_SIZE = 32
#: Contributor id of an entry that arrived by hand-off (master sync,
#: migration, anti-entropy).  The shipped tuple carries no app id, so such
#: entries are unmetered on every path (see :mod:`.quota`); the id is
#: reserved — a wire PUT may not claim it.
HANDOFF_APP_ID = "sync"


@dataclass(frozen=True)
class StoreConfig:
    """Deployment knobs for one ResultStore instance."""

    capacity_bytes: int | None = None
    capacity_entries: int | None = None
    eviction: str = "lru"
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
    # coalesced REC_TOUCH record so restored LRU/LFU eviction order also
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
        return namespaced("store", {
            "gets": self.gets,
            "hits": self.hits,
            "puts": self.puts,
            "puts_duplicate": self.puts_duplicate,
            "puts_rejected": self.puts_rejected,
            "evictions": self.evictions,
            "tamper_detected": self.tamper_detected,
            "restores": self.restores,
            "restored_entries": self.restored_entries,
            "recoveries": self.recoveries,
            "power_fails": self.power_fails,
            "hit_rate": self.hit_rate(),
        }, renames=self._RENAMES)


def plain_channel_pair(clock, seed: bytes) -> tuple[ChannelEndpoint, ChannelEndpoint]:
    """Session-key channel without attestation (tests and tooling)."""
    drbg = HmacDrbg(seed, b"store/plain-channel")
    k_c2s, k_s2c = drbg.generate(16), drbg.generate(16)
    client = ChannelEndpoint(clock, send_key=k_c2s, recv_key=k_s2c, label=0)
    server = ChannelEndpoint(clock, send_key=k_s2c, recv_key=k_c2s, label=1)
    return client, server


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
        if self.config.oblivious_metadata:
            self._dict: MetadataDict | ObliviousMetadataDict = ObliviousMetadataDict(
                capacity=self.config.oblivious_capacity,
                clock=platform.clock,
                seed=seed + b"/oram",
            )
        else:
            self._dict = MetadataDict()
        self._blobs = BlobStore()
        self._policy: EvictionPolicy = make_policy(self.config.eviction)
        self._quota = (
            QuotaManager(self.config.quota, platform.clock) if self.config.quota else None
        )
        self.durable: DurableLog | None = None
        self._durable_suspended = False
        if self.config.durable:
            if self.enclave is None:
                raise StoreError("durable persistence requires an SGX-mode store")
            if self.config.oblivious_metadata:
                raise StoreError(
                    "durable persistence does not support oblivious metadata yet"
                )
            self.durable = DurableLog(
                self.enclave,
                WalConfig(
                    group_commit_records=self.config.wal_group_commit,
                    checkpoint_interval_records=self.config.checkpoint_interval,
                ),
                tracer=self.tracer,
            )
        self._channels: dict[str, ChannelEndpoint] = {}
        self._seed = seed
        self._conn_counter = 0
        # Migration hand-off marks: id -> {"peer", "role", "committed"
        # (set of (lo, hi) ring ranges), "ended"}.  Volatile — a power
        # failure wipes them and WAL replay rebuilds them.
        self._migrations: dict[str, dict] = {}
        # blobs_in_epc bookkeeping: blob_ref -> (enclave heap offset, size).
        self._epc_blob_extents: dict[int, tuple[int, int]] = {}
        self._epc_blob_cursor = 0
        self.stats = StoreStats()
        network.set_reactor(address, self)

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
        self._conn_counter += 1
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
            if self.enclave is not None:
                with self.enclave.ecall("serve_request", in_bytes=len(record)):
                    reply = self._process(channel, record)
                    if self.durable is not None:
                        # Group commit: everything this request logged
                        # becomes durable before the reply — the ack —
                        # leaves the machine.
                        from ..durable.checkpoint import maybe_checkpoint

                        self.durable.commit()
                        maybe_checkpoint(self)
            else:
                reply = self._process(channel, record)
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
            except QuotaExceededError as exc:
                # Machine-readable code first, human detail after.
                response = PutResponse(accepted=False, reason=f"{exc.code}: {exc}")
            except Exception as exc:
                response = ErrorMessage(code=500, detail=str(exc))
        return channel.protect(encode_message(with_request_id(response, request_id)))

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

    # -- touch helper ----------------------------------------------------------
    def _touch(self, region: str, offset: int, n_bytes: int) -> None:
        if self.enclave is not None:
            self.enclave.touch(region, offset, n_bytes)

    # -- GET -----------------------------------------------------------------
    def _handle_get(self, request: GetRequest) -> GetResponse:
        with self.tracer.span("store.get", clock=self.platform.clock) as get_span:
            self.stats.gets += 1
            if len(request.tag) != DIGEST_SIZE:
                raise ProtocolError(f"tag must be {DIGEST_SIZE} bytes")
            with self.tracer.span("store.lookup", clock=self.platform.clock):
                entry = self._dict.get(request.tag, touch=self._touch)
            if entry is None:
                get_span.set("found", False)
                return GetResponse(found=False)
            with self.tracer.span("store.blob_read", clock=self.platform.clock) as read_span:
                sealed = self._blobs.get(entry.blob_ref)
                read_span.set("bytes", len(sealed))
                if self.config.blobs_in_epc:
                    extent = self._epc_blob_extents.get(entry.blob_ref)
                    if extent is not None:
                        self._touch("store/blobs", extent[0], extent[1])
                else:
                    # Copying the ciphertext across the enclave boundary.
                    self.platform.clock.charge_marshal(len(sealed))
                if self.config.verify_blob_digest:
                    self.platform.clock.charge_hash(len(sealed))
                    if blob_digest(sealed) != entry.blob_digest:
                        # Untrusted memory was modified: drop the poisoned
                        # entry and let the application recompute
                        # (fail-safe, §III-D).
                        self.stats.tamper_detected += 1
                        self._evict_entry(entry)
                        read_span.mark("tampered")
                        get_span.set("found", False)
                        return GetResponse(found=False)
            self.stats.hits += 1
            if (
                self.durable is not None
                and not self._durable_suspended
                and self.config.recency_log_interval > 0
                and entry.hits % self.config.recency_log_interval == 0
            ):
                # Coalesced recency mark: one record per N hits keeps the
                # log cheap while restored eviction order tracks reads.
                self.durable.append_touch(entry.tag, entry.hits)
            get_span.set("found", True)
            return GetResponse(
                found=True,
                challenge=entry.challenge,
                wrapped_key=entry.wrapped_key,
                sealed_result=sealed,
            )

    # -- PUT -----------------------------------------------------------------
    def _handle_put(self, request: PutRequest) -> PutResponse:
        with self.tracer.span("store.put", clock=self.platform.clock) as put_span:
            self.stats.puts += 1
            if len(request.tag) != DIGEST_SIZE:
                raise ProtocolError(f"tag must be {DIGEST_SIZE} bytes")
            # Empty challenge/wrapped key = the single-key scheme of §III-B;
            # the cross-application scheme always sends both.
            if len(request.challenge) not in (0, CHALLENGE_SIZE):
                raise ProtocolError(f"challenge must be empty or {CHALLENGE_SIZE} bytes")
            if len(request.wrapped_key) not in (0, WRAPPED_KEY_SIZE):
                raise ProtocolError(f"wrapped key must be empty or {WRAPPED_KEY_SIZE} bytes")
            if request.app_id == HANDOFF_APP_ID:
                raise ProtocolError(f"app id {HANDOFF_APP_ID!r} is reserved for hand-off entries")
            with self.tracer.span("store.lookup", clock=self.platform.clock):
                duplicate = request.tag in self._dict
            if duplicate:
                # Deterministic tags mean one ciphertext version suffices
                # (§IV-B remark); the first stored version wins.
                self.stats.puts_duplicate += 1
                put_span.set("outcome", "duplicate")
                return PutResponse(accepted=True, reason="already stored")
            size = len(request.sealed_result)
            if self._quota is not None:
                self._quota.admit_put(request.app_id, size)
            self._make_room(size)
            with self.tracer.span(
                "store.blob_write", clock=self.platform.clock, bytes=size
            ):
                self.platform.clock.charge_hash(size)  # blob digest
                ref = self._write_blob(request.sealed_result)
                if not self.config.blobs_in_epc:
                    # Ciphertext leaves the enclave.
                    self.platform.clock.charge_marshal(size)
            entry = MetadataEntry(
                tag=request.tag,
                challenge=request.challenge,
                wrapped_key=request.wrapped_key,
                blob_ref=ref,
                blob_digest=blob_digest(request.sealed_result),
                size=size,
                app_id=request.app_id,
            )
            self._dict.put(entry, touch=self._touch)
            if self.durable is not None and not self._durable_suspended:
                self.durable.append_put(entry, request.sealed_result)
            put_span.set("outcome", "stored")
            return PutResponse(accepted=True)

    # -- batch handlers -------------------------------------------------------
    # The whole batch is served inside the single ECALL that pump() opened
    # for its channel record: one transition charge and one record's worth
    # of channel crypto amortized over N dictionary probes.
    def _handle_batch_get(self, request: BatchGetRequest) -> BatchGetResponse:
        return BatchGetResponse(
            items=tuple(self._handle_get(item) for item in request.items)
        )

    def _handle_batch_put(self, request: BatchPutRequest) -> BatchPutResponse:
        # Per-item verdicts: a rejected or malformed item (over quota, bad
        # field shape) must not poison its batch-mates, exactly as N
        # sequential PUTs would each get their own answer.  Eviction and
        # quota accounting run per item through the same code path.
        results = []
        for item in request.items:
            try:
                results.append(self._handle_put(item))
            except (QuotaExceededError, ProtocolError) as exc:
                results.append(PutResponse(accepted=False, reason=f"{exc.code}: {exc}"))
        return BatchPutResponse(items=tuple(results))

    def _write_blob(self, sealed_result: bytes) -> int:
        """Place one ciphertext in the blob arena; with ``blobs_in_epc``
        the arena is enclave heap, so the write records the blob's extent
        and touches its pages."""
        ref = self._blobs.put(sealed_result)
        if self.config.blobs_in_epc:
            size = len(sealed_result)
            self._epc_blob_extents[ref] = (self._epc_blob_cursor, size)
            self._touch("store/blobs", self._epc_blob_cursor, size)
            self._epc_blob_cursor += size
        return ref

    def _make_room(self, incoming: int) -> None:
        cfg = self.config
        while (
            cfg.capacity_entries is not None and len(self._dict) >= cfg.capacity_entries
        ) or (
            cfg.capacity_bytes is not None
            and self._dict.total_bytes() + incoming > cfg.capacity_bytes
        ):
            entries = self._dict.entries()
            if not entries:
                raise StoreError("capacity too small for a single entry")
            with self.tracer.span(
                "store.evict", clock=self.platform.clock, policy=self.config.eviction
            ):
                self._evict_entry(self._policy.select_victim(entries))
            self.stats.evictions += 1

    def _evict_entry(self, entry: MetadataEntry, discard: bool = False) -> None:
        self._dict.remove(entry.tag)
        self._blobs.delete(entry.blob_ref)
        self._epc_blob_extents.pop(entry.blob_ref, None)
        if self._quota is not None and entry.app_id != HANDOFF_APP_ID:
            self._quota.release(entry.app_id, entry.size)
        if self.durable is not None and not self._durable_suspended:
            self.durable.append_remove(entry.tag, discard=discard)

    # -- hand-off (master-store sync of the §IV-B remark, resharding) ----------
    def ingest_entry(
        self, tag: bytes, challenge: bytes, wrapped_key: bytes, sealed_result: bytes
    ) -> bool:
        """Directly insert a replicated entry (sync path, already
        authenticated by the sync channel); returns False on duplicate."""
        if self.enclave is not None and not self.enclave.inside:
            with self.enclave.ecall("ingest_entry", in_bytes=len(sealed_result)):
                return self.ingest_entry(tag, challenge, wrapped_key, sealed_result)
        if tag in self._dict:
            return False
        size = len(sealed_result)
        self._make_room(size)
        ref = self._write_blob(sealed_result)
        entry = MetadataEntry(
            tag=tag,
            challenge=challenge,
            wrapped_key=wrapped_key,
            blob_ref=ref,
            blob_digest=blob_digest(sealed_result),
            size=size,
            app_id=HANDOFF_APP_ID,
        )
        self._dict.put(entry, touch=self._touch)
        if self.durable is not None and not self._durable_suspended:
            # Hand-off log: replicated/migrated entries arrive outside the
            # request loop, so they commit here rather than in pump().
            self.durable.append_put(entry, sealed_result)
            self.durable.commit()
        return True

    def collect_entries(self, predicate) -> list[tuple[bytes, bytes, bytes, bytes]]:
        """Export the ``(tag, r, [k], [res])`` tuples of the entries that
        satisfy ``predicate`` — the collection half of every hand-off
        (master sync, tag-range migration, anti-entropy).

        Runs as one ECALL; each exported ciphertext is charged as a copy
        across the enclave boundary.  Only another attested ResultStore
        enclave ever receives the result (:mod:`repro.store.sync`); no
        wire message reaches this method.
        """
        if self.enclave is not None and not self.enclave.inside:
            with self.enclave.ecall("migrate_collect"):
                return self.collect_entries(predicate)
        out = []
        for entry in self._dict.entries():
            if not predicate(entry):
                continue
            sealed = self._blobs.get(entry.blob_ref)
            self.platform.clock.charge_marshal(len(sealed))
            out.append((entry.tag, entry.challenge, entry.wrapped_key, sealed))
        return out

    def tags_matching(self, predicate) -> list[bytes]:
        """Tags whose value satisfies ``predicate`` — the cheap scan used
        to find entries a ring change re-homed (no ciphertexts leave)."""
        if self.enclave is not None and not self.enclave.inside:
            with self.enclave.ecall("migrate_scan"):
                return self.tags_matching(predicate)
        return [e.tag for e in self._dict.entries() if predicate(e.tag)]

    def discard_tags(self, tags) -> int:
        """Drop entries this store no longer owns after a ring change;
        returns the number removed.  Quota held by the owning app is
        released, mirroring eviction."""
        removed = 0
        if self.enclave is not None and not self.enclave.inside:
            with self.enclave.ecall("migrate_discard"):
                return self.discard_tags(tags)
        for tag in tags:
            entry = self._dict.peek(tag)
            if entry is None:
                continue
            self._evict_entry(entry, discard=True)
            removed += 1
        if self.durable is not None and not self._durable_suspended:
            self.durable.commit()  # hand-off log for the migration source
        return removed

    def can_accept(self, size: int) -> bool:
        """Whether one more ``size``-byte entry fits without evicting.
        Migration uses this to refuse a batch instead of silently
        evicting foreground entries on a full target shard."""
        cfg = self.config
        if cfg.capacity_entries is not None and len(self._dict) >= cfg.capacity_entries:
            return False
        if (
            cfg.capacity_bytes is not None
            and self._dict.total_bytes() + size > cfg.capacity_bytes
        ):
            return False
        return True

    # -- migration hand-off marks ----------------------------------------------
    @property
    def migration_open(self) -> bool:
        """True while this shard participates in an unfinished hand-off."""
        return any(not m["ended"] for m in self._migrations.values())

    def migration_marks(self, migration_id: str) -> dict | None:
        """This shard's durable view of one migration (tests/resume)."""
        mark = self._migrations.get(migration_id)
        if mark is None:
            return None
        return {
            "peer": mark["peer"],
            "role": mark["role"],
            "committed": set(mark["committed"]),
            "ended": mark["ended"],
        }

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
        if self.enclave is not None and not self.enclave.inside:
            with self.enclave.ecall("migrate_mark"):
                return self.note_migrate(
                    kind, migration_id, range_lo, range_hi, peer, role
                )
        from ..durable.wal import WalRecord

        self._note_migrate(WalRecord(
            kind=kind,
            tag=b"",
            migration_id=migration_id,
            range_lo=range_lo,
            range_hi=range_hi,
            peer=peer,
            role=role,
        ))
        if self.durable is not None and not self._durable_suspended:
            self.durable.append_migrate(
                kind, migration_id, range_lo, range_hi, peer, role
            )
            self.durable.commit()

    def _note_migrate(self, record) -> None:
        """Apply one migration mark to the volatile view (live append and
        WAL replay share this)."""
        from ..durable.wal import REC_MIGRATE_COMMIT, REC_MIGRATE_END

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

    def _relog_open_migrations(self) -> None:
        """Re-seal the marks of still-open migrations into the fresh log
        (recovery folds the old log into a checkpoint, which would
        otherwise drop them)."""
        if self.durable is None or not self._migrations:
            return
        from ..durable.wal import (
            REC_MIGRATE_BEGIN,
            REC_MIGRATE_COMMIT,
        )

        logged = False
        for migration_id, mark in self._migrations.items():
            if mark["ended"]:
                continue
            self.durable.append_migrate(
                REC_MIGRATE_BEGIN, migration_id, peer=mark["peer"], role=mark["role"]
            )
            for lo, hi in sorted(mark["committed"]):
                self.durable.append_migrate(
                    REC_MIGRATE_COMMIT, migration_id, lo, hi,
                    peer=mark["peer"], role=mark["role"],
                )
            logged = True
        if logged:
            self.durable.commit()

    def clear(self) -> int:
        """Drop every entry and blob (a crashed store process loses its
        in-memory state); quota held by contributing apps is released.
        Returns the number of entries dropped."""
        if self.enclave is not None and not self.enclave.inside:
            with self.enclave.ecall("clear"):
                return self.clear()
        entries = self._dict.entries()
        # clear() models memory *loss*, not N deliberate deletions — the
        # durable log must not record it as evictions.
        suspended = self._durable_suspended
        self._durable_suspended = True
        try:
            for entry in entries:
                self._evict_entry(entry)
        finally:
            self._durable_suspended = suspended
        return len(entries)

    # -- power failure and recovery (repro.durable) ---------------------------
    def power_fail(self) -> int:
        """Simulate a power failure: every volatile structure — the
        enclave's metadata dictionary, the untrusted blob arena, eviction
        and quota state, and the WAL's in-enclave buffer — is lost in
        place.  Only the durable artifacts (sealed segments, the sealed
        checkpoint, logged ciphertexts) survive for :meth:`recover`.
        Established channels are kept — the subsystem hardens *store
        state*, not the transport.  Returns the entry count wiped."""
        if self.durable is None:
            raise StoreError("power_fail requires a durable-mode store")
        wiped = len(self._dict)
        self._dict = MetadataDict()
        self._blobs = BlobStore()
        self._policy = make_policy(self.config.eviction)
        if self.config.quota:
            self._quota = QuotaManager(self.config.quota, self.platform.clock)
        self._epc_blob_extents.clear()
        self._epc_blob_cursor = 0
        self._migrations = {}
        self.durable.power_fail()
        self.stats.power_fails += 1
        return wiped

    def recover(self):
        """Rebuild state from the durable log after :meth:`power_fail`;
        returns the :class:`~repro.durable.recovery.RecoveryReport`."""
        from ..durable.recovery import recover_store

        return recover_store(self)

    def replay_insert(self, record, sealed_result: bytes) -> bool:
        """Re-insert one logged PUT during WAL replay (recovery only).
        Quota is re-admitted without rate-limiting — the entry was
        admitted before the crash.  Returns False on duplicate."""
        if record.tag in self._dict:
            return False
        self._make_room(record.size)
        ref = self._write_blob(sealed_result)
        self.platform.clock.charge_marshal(record.size)
        self._dict.put(
            MetadataEntry(
                tag=record.tag,
                challenge=record.challenge,
                wrapped_key=record.wrapped_key,
                blob_ref=ref,
                blob_digest=record.blob_digest,
                size=record.size,
                app_id=record.app_id,
            ),
            touch=self._touch,
        )
        if self._quota is not None and record.app_id != HANDOFF_APP_ID:
            self._quota.restore(record.app_id, record.size)
        return True

    def replay_touch(self, record) -> bool:
        """Re-apply one logged GET-recency mark during WAL replay."""
        return self._dict.touch_restore(record.tag, record.hits, touch=self._touch)

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._dict)

    def contains(self, tag: bytes) -> bool:
        return tag in self._dict

    def entry_hits(self, tag: bytes) -> int:
        entry = self._dict.peek(tag)
        return entry.hits if entry else 0

    def stored_tags(self) -> list[bytes]:
        """Every tag currently held, sorted (tests/diagnostics only —
        no eviction state is touched)."""
        return sorted(entry.tag for entry in self._dict.entries())

    def metadata_entry(self, tag: bytes):
        """The live in-enclave entry for ``tag``, or None.  Adversarial
        tests mutate it to model a compromised metadata dictionary; the
        paper's Fig. 3 verification must reject anything they change."""
        return self._dict.peek(tag)

    @property
    def blobstore(self) -> BlobStore:
        """Untrusted memory — exposed for adversarial tests."""
        return self._blobs

    def blob_ref_of(self, tag: bytes) -> int:
        entry = self._dict.peek(tag)
        if entry is None:
            raise StoreError("unknown tag")
        return entry.blob_ref

    def snapshot(self) -> dict:
        """Store counters plus, on durable stores, the ``durable.*``
        log/checkpoint/recovery counters — one flat dict."""
        snap = self.stats.snapshot()
        if self.durable is not None:
            snap.update(self.durable.snapshot())
        return snap
