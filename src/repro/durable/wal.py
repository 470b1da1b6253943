"""The sealed, MAC-chained write-ahead log.

One :class:`DurableLog` serves one ResultStore.  It has two halves:

* a **volatile** half living in enclave memory — the record buffer and
  the running chain head — which a power failure destroys;
* a **durable** half living on the untrusted host ("disk") — the sealed
  segments, the sealed checkpoint, and the blob area — which survives.

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
from ..net.framing import FieldReader, FieldWriter
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


@dataclass(frozen=True)
class WalSegment:
    """One committed segment — host-durable, opaque to the host."""

    first_seq: int
    n_records: int
    chain: bytes        # chain head after folding this segment in
    sealed: SealedBlob


_MIGRATE_FIELDS = (
    ("migration_id", "text"), ("range_lo", "u64"), ("range_hi", "u64"),
    ("peer", "text"), ("role", "u8"),
)
#: What each record kind carries after ``kind`` and ``tag``, as
#: ``(WalRecord attribute, framing primitive)`` pairs — the one list both
#: :func:`encode_segment` and :func:`decode_segment` walk.
RECORD_FIELDS = {
    REC_PUT: (
        ("challenge", "blob"), ("wrapped_key", "blob"), ("blob_digest", "blob"),
        ("size", "u64"), ("app_id", "text"),
    ),
    REC_REMOVE: (("subkind", "u8"),),
    REC_MIGRATE_BEGIN: _MIGRATE_FIELDS,
    REC_MIGRATE_COMMIT: _MIGRATE_FIELDS,
    REC_MIGRATE_END: _MIGRATE_FIELDS,
    REC_TOUCH: (("hits", "u64"),),
}


def write_fields(writer: FieldWriter, fields, values) -> None:
    """Append ``values[name]`` for each declared ``(name, primitive)``."""
    for name, primitive in fields:
        getattr(writer, primitive)(values[name])


def read_fields(reader: FieldReader, fields) -> dict:
    """Consume one value per declared ``(name, primitive)``."""
    return {name: getattr(reader, primitive)() for name, primitive in fields}


def _fields_of(kind: int):
    try:
        return RECORD_FIELDS[kind]
    except KeyError:
        raise StoreError(f"unknown WAL record kind {kind}") from None


def encode_segment(prev_chain: bytes, first_seq: int, records) -> bytes:
    """Serialize one segment's plaintext (sealed before leaving the
    enclave).  The predecessor's chain value rides inside the sealed
    payload, so segment order is bound by the seal itself."""
    writer = FieldWriter()
    writer.u32(WAL_FORMAT_VERSION)
    writer.blob(prev_chain)
    writer.u64(first_seq)
    writer.u32(len(records))
    for record in records:
        writer.u8(record.kind)
        writer.blob(record.tag)
        write_fields(writer, _fields_of(record.kind), vars(record))
    return writer.getvalue()


def decode_segment(payload: bytes) -> tuple[bytes, int, list[WalRecord]]:
    """Parse one unsealed segment payload back into records."""
    reader = FieldReader(payload)
    version = reader.u32()
    if version != WAL_FORMAT_VERSION:
        raise StoreError(f"unsupported WAL segment version {version}")
    prev_chain = reader.blob()
    first_seq = reader.u64()
    records = []
    for _ in range(reader.u32()):
        kind = reader.u8()
        tag = reader.blob()
        records.append(WalRecord(kind, tag, **read_fields(reader, _fields_of(kind))))
    reader.expect_end()
    return prev_chain, first_seq, records


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

    def __init__(self, enclave, config: WalConfig | None = None, tracer=NULL_TRACER):
        self.enclave = enclave
        self.config = config or WalConfig()
        self.tracer = NULL_TRACER if tracer is None else tracer
        # -- durable half (survives power_fail) ---------------------------
        self.segments: list[WalSegment] = []
        self.blob_area: dict[bytes, bytes] = {}   # blob digest -> ciphertext
        self.checkpoint = None                    # CheckpointImage | None
        # -- volatile half (wiped by power_fail) --------------------------
        self._buffer: list[WalRecord] = []
        self.chain = GENESIS_CHAIN
        self.next_seq = 1
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
            self.blob_area[entry.blob_digest] = bytes(sealed_result)
            self._append(WalRecord(REC_PUT, entry.tag, **{
                name: getattr(entry, name) for name, _ in RECORD_FIELDS[REC_PUT]
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
            self.segments.append(WalSegment(
                first_seq=self.next_seq,
                n_records=committed,
                chain=self.chain,
                sealed=sealed,
            ))
            self.next_seq += committed
            self._buffer.clear()
            self.commits += 1
            self.records_logged += committed
            self.log_bytes += len(sealed.payload)
        return committed

    # -- state ------------------------------------------------------------
    @property
    def pending_records(self) -> int:
        return len(self._buffer)

    def records_in_log(self) -> int:
        return sum(segment.n_records for segment in self.segments)

    def needs_checkpoint(self) -> bool:
        return self.records_in_log() >= self.config.checkpoint_interval_records

    # -- lifecycle --------------------------------------------------------
    def power_fail(self) -> None:
        """Lose the volatile half: uncommitted records and the running
        chain head.  The durable artifacts are untouched; recovery
        re-derives the chain from the checkpoint anchor."""
        self._buffer.clear()
        self.chain = GENESIS_CHAIN
        self.next_seq = 1
        self.power_failures += 1

    def install_checkpoint(self, image) -> None:
        """Adopt a fresh checkpoint: it covers every committed record, so
        the segments it folded in and the blob copies they referenced are
        dropped (compaction)."""
        if self._buffer:
            raise StoreError("checkpoint requires a committed (empty) buffer")
        self.checkpoint = image
        self.segments.clear()
        self.blob_area.clear()
        self.checkpoints += 1

    def resume_from(self, seq: int, chain: bytes) -> None:
        """Point the volatile half at the recovered position so normal
        logging continues the chain recovery verified."""
        self.next_seq = seq
        self.chain = chain

    # -- observability ----------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical ``durable.*`` counters (merged into the store's)."""
        return {
            "durable.appends": self.appends,
            "durable.commits": self.commits,
            "durable.records_logged": self.records_logged,
            "durable.log_bytes": self.log_bytes,
            "durable.segments": len(self.segments),
            "durable.pending_records": self.pending_records,
            "durable.blob_area_bytes": sum(len(b) for b in self.blob_area.values()),
            "durable.checkpoints": self.checkpoints,
            "durable.recoveries": self.recoveries,
            "durable.records_replayed": self.records_replayed,
            "durable.torn_segments": self.torn_segments,
            "durable.chain_breaks": self.chain_breaks,
            "durable.power_failures": self.power_failures,
            "durable.rollback_detected": self.rollback_detected,
        }
