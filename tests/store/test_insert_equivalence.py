"""Every way into a store is one path: same entry, same victims, same log.

One scenario table, each row run once per *route* an entry can take into
an identically prepared store.  A row passes when every route leaves the
same store image, evicts the same victims, leaves the same durable state
and the same quota usage — and all of it matches what the row says.

The live routes deliver the entry to the running target: a lone
``PUT_REQUEST``, a ``BATCH_PUT`` item, a migration batch
(``transfer_entries``) and a master-sync round (``replicate_popular``)
from a source store on another machine.  The restart routes are fed from
a *donor* store on the target's machine (same sealing fabric) that held
just the incoming entry: its snapshot is restored into the target, or its
log or checkpoint is handed to the target's recovery — as the untrusted
host could — run without a power failure, so the state the row prepared
is still live when the entry arrives.

Two things differ by route on purpose, and the table says so: a hand-off
entry is unmetered (the shipped tuple carries no contributor), and WAL
replay / checkpoint restore do not log — recovery folds what it rebuilt
into a fresh checkpoint instead.
"""

import dataclasses
from dataclasses import dataclass, field

import pytest

from repro.crypto.hashes import sha256
from repro.deployment import Deployment
from repro.durable import take_checkpoint
from repro.durable.wal import REC_PUT, REC_REMOVE, decode_segment
from repro.net.messages import BatchPutRequest, GetRequest, PutRequest
from repro.security import HostAdversary
from repro.sgx.attestation import AttestationService
from repro.simtest.invariants import store_image
from repro.store.persistence import restore_store, snapshot_store
from repro.store.quota import QuotaPolicy
from repro.store.resultstore import StoreConfig
from repro.store.sync import replicate_popular, transfer_entries
from tests.conftest import carry_snapshot, quota_usage

LIVE = ("lone_put", "batch_put", "migration_ingest", "replicate_popular")
ROUTES = (*LIVE, "wal_replay", "snapshot_restore", "checkpoint_restore")
HANDOFF = ("migration_ingest", "replicate_popular")   # unmetered
RECOVERY = ("wal_replay", "checkpoint_restore")       # durable targets only; unlogged


@dataclass(frozen=True)
class Row:
    name: str
    config: dict = field(default_factory=dict)  # the target's StoreConfig
    warm: tuple = ()           # resident indices GET, in this order, before arrival
    incoming_size: int = 100
    duplicate_of: int | None = None  # arrive under this resident's tag instead
    evicted: tuple = ()        # resident indices the arrival must evict
    shrink_to: int | None = None  # the target's capacity_entries once residents are in


# Three 100-byte residents r0, r1, r2 (inserted in that order by app
# "resident") are in the store when the entry arrives from app "newcomer".
# WARM makes recency disagree with insertion order: r2 is the least
# recently used, r0 the first in.
WARM = (2, 2, 2, 0, 0, 1)
DURABLE = dict(durable=True, checkpoint_interval=10_000)
SCENARIOS = [
    Row("fresh"),
    Row("fresh_durable", DURABLE),
    Row("duplicate", duplicate_of=1),
    Row("duplicate_durable_at_capacity", dict(DURABLE, capacity_entries=3), duplicate_of=1),
    Row("at_capacity_entries", dict(capacity_entries=3), evicted=(0,)),
    Row("at_capacity_entries_durable", dict(DURABLE, capacity_entries=3), evicted=(0,)),
    Row("shrunk_capacity_durable", dict(DURABLE, capacity_entries=3), shrink_to=2,
        incoming_size=150, evicted=(0, 1)),
    Row("quota_durable", dict(DURABLE, capacity_entries=3, quota=QuotaPolicy()), evicted=(0,)),
    Row("blobs_in_epc_durable", dict(DURABLE, capacity_entries=3, blobs_in_epc=True),
        evicted=(0,)),
    Row("lru_prior_hits", dict(DURABLE, capacity_entries=3), warm=WARM, evicted=(2,)),
]


def request(label: bytes, body: bytes, app: str, size: int = 100) -> PutRequest:
    return PutRequest(
        tag=sha256(b"insert-equiv/" + label), challenge=b"r" * 32,
        wrapped_key=b"k" * 16, sealed_result=body.ljust(size, b"."), app_id=app,
    )


def machine(name: str, service=None, **config):
    """A store on machine ``name`` and a raw client connected to it."""
    d = Deployment(seed=b"insert-equiv/" + name.encode(), machine=name,
                   attestation_service=service, store_config=StoreConfig(**config))
    enclave = d.platform.create_enclave("client", b"client-code")
    return d.store, d.store.connect("client-addr", app_enclave=enclave)


def logged_records(store) -> list:
    log = store.durable
    with store.ecall("test-read-log"):
        return [
            record
            for name in log.segment_names()
            for record in decode_segment(log.unseal(name))[2]
        ]


def deliver(route: str, incoming: PutRequest, service, target, client) -> None:
    """Bring ``incoming`` into ``target`` by ``route``."""
    if route == "lone_put":
        assert client.call(incoming).accepted
    elif route == "batch_put":
        (verdict,) = client.call(BatchPutRequest(items=(incoming,))).items
        assert verdict.accepted
    elif route in HANDOFF:
        source, source_client = machine("source", service)
        assert source_client.call(incoming).accepted
        assert source_client.call(GetRequest(tag=incoming.tag)).found  # popular
        if route == "replicate_popular":
            report = replicate_popular(service, source, target, min_hits=1)
            assert report.offered == 1
        else:
            shipped = source.collect_entries(lambda entry: True)
            transfer_entries(service, source, target, shipped)
    else:
        # Same seed and machine name as the target: the same sealing fabric.
        donor, donor_client = machine("target", durable=True)
        assert donor_client.call(incoming).accepted
        if route == "snapshot_restore":
            snapshot_store(donor)
            carry_snapshot(donor, target)
            restore_store(target)
        else:
            # Same address too: the donor's durable names are the target's.
            log = target.durable
            assert target.platform.host.get(log.checkpoint_name) is None
            if route == "checkpoint_restore":
                take_checkpoint(donor)
            host, donor_host = (HostAdversary(s.platform.host) for s in (target, donor))
            for prefix in (log.wal_prefix, log.blob_prefix, log.checkpoint_name):
                host.put_back(donor_host.save(prefix), prefix=prefix)
            target.recover()


def run(row: Row, route: str) -> dict:
    service = AttestationService()
    target, client = machine("target", service, **row.config)
    residents = [request(b"r%d" % i, b"resident-%d" % i, "resident") for i in range(3)]
    for resident in residents:
        assert client.call(resident).accepted
    for index in row.warm:
        assert client.call(GetRequest(tag=residents[index].tag)).found
    if row.shrink_to is not None:
        target.config = dataclasses.replace(target.config, capacity_entries=row.shrink_to)
    label = b"incoming" if row.duplicate_of is None else b"r%d" % row.duplicate_of
    incoming = request(label, b"from-newcomer", "newcomer", row.incoming_size)
    evictions0 = target.stats.evictions
    records0 = len(logged_records(target)) if target.durable else 0

    deliver(route, incoming, service, target, client)

    quota = target._quota
    out = {
        "image": store_image(target),
        "evictions": target.stats.evictions - evictions0,
        "usage": quota and {
            app: quota_usage(quota, app) for app in ("resident", "newcomer", "sync")
        },
        "extents_match_blobs": sorted(target._epc_blob_extents) == (
            sorted(target.metadata_entry(tag).blob_ref for tag in target.stored_tags())
            if target.config.blobs_in_epc else []
        ),
    }
    if target.durable is not None:
        if route in RECOVERY:
            log = target.durable
            assert target.platform.host.get(log.checkpoint_name) and not log.segment_names()
            out["logged"] = "folded into a checkpoint"
        else:
            out["logged"] = [
                (record.kind, record.tag, record.size)
                for record in logged_records(target)[records0:]
            ]
        target.power_fail()
        target.recover()
        out["image_after_power_failure"] = store_image(target)
        out["usage_after_power_failure"] = quota and {
            app: quota_usage(target._quota, app) for app in ("resident", "newcomer", "sync")
        }
    return out


def expected(row: Row, route: str) -> dict:
    """What the row says must happen, whichever route the entry takes."""
    residents = [request(b"r%d" % i, b"resident-%d" % i, "resident") for i in range(3)]
    image = {
        r.tag: r.sealed_result for i, r in enumerate(residents) if i not in row.evicted
    }
    arrived = row.duplicate_of is None   # first write wins: a duplicate changes nothing
    incoming = request(b"incoming", b"from-newcomer", "newcomer", row.incoming_size)
    if arrived:
        image[incoming.tag] = incoming.sealed_result
    usage = None
    if "quota" in row.config:
        metered = arrived and route not in HANDOFF
        usage = {
            "resident": (100 * (3 - len(row.evicted)), 3 - len(row.evicted)),
            "newcomer": (row.incoming_size, 1) if metered else (0, 0),
            "sync": (0, 0),
        }
    out = {
        "image": image, "evictions": len(row.evicted), "usage": usage,
        "extents_match_blobs": True,
    }
    if row.config.get("durable"):
        out["logged"] = "folded into a checkpoint" if route in RECOVERY else [
            *((REC_REMOVE, residents[i].tag, 0) for i in row.evicted),
            *([(REC_PUT, incoming.tag, row.incoming_size)] if arrived else []),
        ]
        out["image_after_power_failure"] = image
        out["usage_after_power_failure"] = usage
    return out


CASES = [
    pytest.param(row, route, id=f"{row.name}-{route}")
    for row in SCENARIOS for route in ROUTES
    if route not in RECOVERY or row.config.get("durable")  # those need a log
]


@pytest.mark.parametrize("row, route", CASES)
def test_every_route_is_the_one_insert_path(row, route):
    assert run(row, route) == expected(row, route)
