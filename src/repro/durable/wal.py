"""The sealed, MAC-chained write-ahead log.

One :class:`DurableLog` serves one ResultStore.  It has two halves:

* a **volatile** half living in enclave memory — the record buffer and
  the running chain head — which a power failure destroys;
* a **durable** half living on the untrusted host ("disk") — the sealed
  segments, the sealed checkpoint, and the blob area — which survives.
  Its bytes are host-storage names: ``<store>/wal/<seq>+<n>`` per
  segment (names sort in commit order; ``n`` is for reporting only),
  ``<store>/blobs/<digest>`` and ``<store>/checkpoint``.

Records describe metadata mutations only.  A PUT record carries the
entry fields the enclave must protect (challenge ``r``, wrapped key
``[k]``) plus the blob digest that pins the ciphertext; the ciphertext
itself is *not* re-encrypted — it is already AEAD ciphertext under the
application's key and lives outside the enclave by design (§IV-B), so
the log writes it through to the durable blob area as-is and the sealed
digest detects any at-rest tampering during recovery.

Group commit: appends only buffer; :meth:`DurableLog.commit` seals the
whole buffer as a single segment, paying one seal AEAD pass for the
batch.  Each segment embeds the chain token of its predecessor — the
predecessor's 28-byte seal header (``iv || tag``), which the seal's own
AEAD tag already authenticates, so chaining costs no hash beyond the
seal itself — and a host that drops, reorders, or substitutes a
committed middle segment is caught at recovery as a chain break.  A corrupted or half-written *last*
segment is indistinguishable from a crash mid-commit and is dropped as a
torn tail — exactly the un-acked-write ambiguity real logs have.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StoreError
from ..net.framing import FieldReader, FieldWriter, Layout, read_fields, write_fields
from ..obs.tracer import NULL_TRACER
from ..sgx.sealing import SealedBlob, SealPolicy

WAL_FORMAT_VERSION = 2
GENESIS_CHAIN = b"\x00" * 32

#: Record kinds.
REC_PUT = 1
REC_REMOVE = 2
#: Tag-range migration hand-off marks (cluster resharding).  BEGIN/END
#: bracket one shard's participation in a migration; one RANGE_COMMIT is
#: logged per handed-off range — on the destination after the range's
#: entries are durably ingested, on the source right before its stale
#: copies are discarded.  Replay rebuilds the shard's view of which
#: ranges were already handed off, so a power failure on either side
#: mid-migration recovers to a consistent ownership map.
REC_MIGRATE_BEGIN = 3
REC_MIGRATE_COMMIT = 4
REC_MIGRATE_END = 5
#: Coalesced GET-recency mark: the entry's hit counter at log time, so
#: restored LRU/LFU order also reflects reads served after the last
#: checkpoint (logged every ``recency_log_interval`` hits).
REC_TOUCH = 6

#: Removal subkinds (reporting only; both replay identically).
REMOVE_EVICT = 0
REMOVE_DISCARD = 1

#: Migration roles.
MIGRATE_SOURCE = 0
MIGRATE_DEST = 1


@dataclass(frozen=True)
class WalConfig:
    """Durability knobs for one store's log."""

    #: Seal the buffer whenever it reaches this many records even
    #: mid-request; the store always commits at the end of each served
    #: request anyway, so acks stay durable at any setting.
    group_commit_records: int = 8
    #: Fold the log into a sealed checkpoint once this many committed
    #: records accumulate.
    checkpoint_interval_records: int = 256


@dataclass(frozen=True)
class WalRecord:
    """One logged metadata mutation."""

    kind: int
    tag: bytes
    challenge: bytes = b""
    wrapped_key: bytes = b""
    blob_digest: bytes = b""
    size: int = 0
    app_id: str = ""
    subkind: int = 0
    # REC_TOUCH: the entry's hit count when the mark was logged.
    hits: int = 0
    # REC_MIGRATE_*: migration identity and the handed-off ring range.
    migration_id: str = ""
    range_lo: int = 0
    range_hi: int = 0
    peer: str = ""
    role: int = MIGRATE_SOURCE


#: A segment plaintext: this header, then ``n_records`` records, each
#: ``RECORD_HEAD`` followed by ``RECORD_FIELDS[kind]``.
SEGMENT_HEADER = Layout(
    ("version", "u32"), ("prev_chain", "blob"), ("first_seq", "u64"), ("n_records", "u32"),
)
RECORD_HEAD = Layout(("kind", "u8"), ("tag", "blob"))
_MIGRATE_FIELDS = Layout(
    ("migration_id", "text"), ("range_lo", "u64"), ("range_hi", "u64"),
    ("peer", "text"), ("role", "u8"),
)
#: What each record kind carries after its head, as ``(WalRecord
#: attribute, framing primitive)`` pairs.
RECORD_FIELDS = {
    REC_PUT: Layout(
        ("challenge", "blob"), ("wrapped_key", "blob"), ("blob_digest", "blob"),
        ("size", "u64"), ("app_id", "text"),
    ),
    REC_REMOVE: Layout(("subkind", "u8")),
    REC_MIGRATE_BEGIN: _MIGRATE_FIELDS,
    REC_MIGRATE_COMMIT: _MIGRATE_FIELDS,
    REC_MIGRATE_END: _MIGRATE_FIELDS,
    REC_TOUCH: Layout(("hits", "u64")),
}


# A whole record, head and fields, per kind (what the encoder writes).
_RECORDS = {kind: Layout(*RECORD_HEAD.fields, *f.fields) for kind, f in RECORD_FIELDS.items()}


def _fields_of(kind: int) -> Layout:
    try:
        return RECORD_FIELDS[kind]
    except KeyError:
        raise StoreError(f"unknown WAL record kind {kind}") from None


def encode_segment(prev_chain: bytes, first_seq: int, records) -> bytes:
    """Serialize one segment's plaintext (sealed before leaving the
    enclave).  The predecessor's chain value rides inside the sealed
    payload, so segment order is bound by the seal itself."""
    writer = FieldWriter()
    write_fields(writer, SEGMENT_HEADER, {
        "version": WAL_FORMAT_VERSION, "prev_chain": prev_chain,
        "first_seq": first_seq, "n_records": len(records),
    })
    for record in records:
        write_fields(writer, _RECORDS[record.kind], vars(record))
    return writer.getvalue()


def decode_segment(payload: bytes) -> tuple[bytes, int, list[WalRecord]]:
    """Parse one unsealed segment payload back into records."""
    reader = FieldReader(payload)
    header = read_fields(reader, SEGMENT_HEADER)
    if header["version"] != WAL_FORMAT_VERSION:
        raise StoreError(f"unsupported WAL segment version {header['version']}")
    records = []
    for _ in range(header["n_records"]):
        head = read_fields(reader, RECORD_HEAD)
        records.append(WalRecord(**head, **read_fields(reader, _fields_of(head["kind"]))))
    reader.expect_end()
    return header["prev_chain"], header["first_seq"], records


#: The sealed payload layout is ``iv(12) || tag(16) || ct`` — the first
#: 28 bytes are a compact, unforgeable identifier of the whole segment.
SEAL_HEADER_BYTES = 28


def chain_step(sealed_payload: bytes) -> bytes:
    """The chain token after one sealed segment: its seal header.

    No extra hash is needed to link segments.  Each segment seals its
    predecessor's chain token *inside* the AEAD payload, and the seal
    tag authenticates that payload — so the 28-byte ``iv || tag`` header
    already binds both the segment's records and its position in the
    chain.  Committing pays only the seal; recovery verifies the chain
    for free with the unseal it performs anyway.
    """
    return sealed_payload[:SEAL_HEADER_BYTES]


class DurableLog:
    """Write-ahead log + durable artifacts for one ResultStore."""

    def __init__(self, enclave, store: str, config: WalConfig | None = None, tracer=NULL_TRACER):
        self.enclave = enclave
        self.config = config or WalConfig()
        self.tracer = NULL_TRACER if tracer is None else tracer
        # -- durable half (host names; survives power_fail) ---------------
        self.host = enclave.platform.host
        self.wal_prefix = f"{store}/wal/"
        self.blob_prefix = f"{store}/blobs/"
        self.checkpoint_name = f"{store}/checkpoint"
        # -- volatile half (wiped by power_fail) --------------------------
        self._buffer: list[WalRecord] = []
        self.chain = GENESIS_CHAIN
        self.next_seq = 1
        self.records_since_checkpoint = 0  # the trigger; never read off the host
        # -- counters -----------------------------------------------------
        self.appends = 0
        self.commits = 0
        self.records_logged = 0
        self.log_bytes = 0
        self.checkpoints = 0
        self.recoveries = 0
        self.records_replayed = 0
        self.torn_segments = 0
        self.chain_breaks = 0
        self.power_failures = 0
        self.rollback_detected = 0

    # -- appending (inside the store enclave) -----------------------------
    def append_put(self, entry, sealed_result: bytes) -> None:
        """Log one accepted PUT and write its ciphertext through to the
        durable blob area (a host-side copy, like any blob leaving the
        enclave's control)."""
        with self._appending("put", bytes=len(sealed_result)):
            self.enclave.platform.clock.charge_marshal(len(sealed_result))
            self.host.put(self.blob_name(entry.blob_digest), bytes(sealed_result))
            self._append(WalRecord(REC_PUT, entry.tag, **{
                name: getattr(entry, name) for name, _ in RECORD_FIELDS[REC_PUT].fields
            }))

    def append_remove(self, tag: bytes, discard: bool = False) -> None:
        """Log one eviction (or migration discard) by tag."""
        subkind = REMOVE_DISCARD if discard else REMOVE_EVICT
        with self._appending("remove"):
            self._append(WalRecord(REC_REMOVE, tag, subkind=subkind))

    def append_touch(self, tag: bytes, hits: int) -> None:
        """Log one coalesced GET-recency mark (every Nth hit on a tag)."""
        with self._appending("touch"):
            self._append(WalRecord(REC_TOUCH, tag, hits=hits))

    def append_migrate(self, record: WalRecord) -> None:
        """Log one migration hand-off mark (BEGIN / RANGE_COMMIT / END)."""
        if RECORD_FIELDS.get(record.kind) is not _MIGRATE_FIELDS:
            raise StoreError(f"not a migration record kind: {record.kind}")
        with self._appending("migrate"):
            self._append(record)

    def _appending(self, kind: str, **attributes):
        return self.tracer.span(
            "durable.wal_append", clock=self.enclave.platform.clock,
            kind=kind, **attributes,
        )

    def _append(self, record: WalRecord) -> None:
        self._buffer.append(record)
        self.appends += 1
        if len(self._buffer) >= self.config.group_commit_records:
            self.commit()

    def commit(self) -> int:
        """Seal the buffered records as one segment; returns how many
        became durable.  Must run inside the store enclave (the seal key
        is only available there)."""
        if not self._buffer:
            return 0
        clock = self.enclave.platform.clock
        with self.tracer.span(
            "durable.wal_commit", clock=clock, records=len(self._buffer)
        ):
            payload = encode_segment(self.chain, self.next_seq, self._buffer)
            sealed = self.enclave.seal(payload, SealPolicy.MRSIGNER)
            self.chain = chain_step(sealed.payload)
            committed = len(self._buffer)
            self.host.put(f"{self.wal_prefix}{self.next_seq:020d}+{committed}", sealed.payload)
            self.next_seq += committed
            self.records_since_checkpoint += committed
            self._buffer.clear()
            self.commits += 1
            self.records_logged += committed
            self.log_bytes += len(sealed.payload)
        return committed

    # -- state ------------------------------------------------------------
    @property
    def pending_records(self) -> int:
        return len(self._buffer)

    def needs_checkpoint(self) -> bool:
        return self.records_since_checkpoint >= self.config.checkpoint_interval_records

    def blob_name(self, digest: bytes) -> str:
        """The host name of one written-through ciphertext."""
        return self.blob_prefix + digest.hex()

    def segment_names(self) -> list[str]:
        """The committed segments the host presents, in name order."""
        return self.host.names(self.wal_prefix)

    def unseal(self, name: str) -> bytes:
        """Unseal one host-held segment or checkpoint (inside the enclave)."""
        return self.enclave.unseal(SealedBlob(SealPolicy.MRSIGNER, self.host.get(name)))

    # -- lifecycle --------------------------------------------------------
    def power_fail(self) -> None:
        """Lose the volatile half: uncommitted records and the running
        chain head.  The durable artifacts are untouched; recovery
        re-derives the chain from the checkpoint anchor."""
        self._buffer.clear()
        self.chain = GENESIS_CHAIN
        self.next_seq = 1
        self.records_since_checkpoint = 0
        self.power_failures += 1

    def install_checkpoint(self, sealed_payload: bytes) -> None:
        """Adopt a fresh sealed checkpoint: it covers every committed
        record, so the segments it folded in and the blob copies they
        referenced are dropped (compaction)."""
        if self._buffer:
            raise StoreError("checkpoint requires a committed (empty) buffer")
        self.host.put(self.checkpoint_name, sealed_payload)
        for name in self.segment_names() + self.host.names(self.blob_prefix):
            self.host.delete(name)
        self.records_since_checkpoint = 0
        self.checkpoints += 1

    # -- observability ----------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical ``durable.*`` counters (merged into the store's)."""
        return {
            "durable.appends": self.appends,
            "durable.commits": self.commits,
            "durable.records_logged": self.records_logged,
            "durable.log_bytes": self.log_bytes,
            "durable.wal_segments": len(self.segment_names()),
            "durable.pending_records": self.pending_records,
            "durable.blob_area_bytes": sum(
                len(self.host.get(name)) for name in self.host.names(self.blob_prefix)),
            "durable.checkpoints": self.checkpoints,
            "durable.recoveries": self.recoveries,
            "durable.records_replayed": self.records_replayed,
            "durable.torn_segments": self.torn_segments,
            "durable.chain_breaks": self.chain_breaks,
            "durable.power_failures": self.power_failures,
            "durable.rollback_detected": self.rollback_detected,
        }
